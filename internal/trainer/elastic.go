package trainer

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/horovod"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// ElasticConfig drives a fault-tolerant data-parallel training run: the
// distributed generalization of Session. Rank 0 writes an atomic
// checkpoint of the full training state (parameters, Adam moments, the
// per-rank loader RNG streams) every CheckpointEvery steps; when a rank
// dies mid-run the surviving ranks rebuild a smaller world from the
// last checkpoint, re-shard the data, rescale the learning rate, and
// continue.
type ElasticConfig struct {
	// Train is the per-rank training configuration (model, data, steps,
	// base LR — scaled by the live world size, per the Horovod rule).
	Train Config
	// WorldSize is the initial number of data-parallel ranks.
	WorldSize int
	// CheckpointPath is where the training state lives. Empty disables
	// checkpointing (and therefore restart).
	CheckpointPath string
	// CheckpointEvery writes a checkpoint after every K steps (0 keeps
	// only the final state, written when the run completes).
	CheckpointEvery int
	// RecvTimeout is the failure-detection deadline: a rank silent for
	// this long is declared dead. 0 disables deadline detection (crashes
	// inside the process are still detected through panic recovery).
	RecvTimeout time.Duration
	// Fault is the injection schedule for the first attempt; restarts
	// always run fault-free. Zero value injects nothing (see
	// mpi.NoFaults; the rank -1 convention is normalized here).
	Fault mpi.FaultPlan
	// MaxRestarts bounds how many elastic restarts are attempted before
	// the run gives up and reports the failure.
	MaxRestarts int
	// FusionThresholdBytes is passed to the Horovod engine; -1 disables
	// fusion, which makes runs bitwise deterministic (fusion grouping
	// depends on readiness timing and changes fp summation order).
	FusionThresholdBytes int64
}

// AttemptStats describes one world's portion of an elastic run.
type AttemptStats struct {
	WorldSize int
	StartStep int
	EndStep   int
	AvgLoss   float64
	FinalLoss float64
	Err       string

	// survivors is the rank count available for the next restart.
	survivors int
}

// ElasticStats summarizes a completed elastic run.
type ElasticStats struct {
	Restarts int
	Attempts []AttemptStats
}

// elasticState is the serialized distributed training state. Values and
// moments are identical on every rank (that is the data-parallel
// invariant), so rank 0's copy plus every rank's loader RNG stream is
// the complete state of the job.
type elasticState struct {
	Config    Config
	WorldSize int
	Step      int
	Names     []string
	Values    []*tensor.Tensor
	AdamM     []*tensor.Tensor
	AdamV     []*tensor.Tensor
	AdamStep  int
	LoaderRNG []uint64
}

// LoadElasticState reads a distributed checkpoint (exported for the CLI
// to print resume info).
func LoadElasticState(path string) (step, worldSize int, err error) {
	st, err := readElasticState(path)
	if err != nil {
		return 0, 0, err
	}
	return st.Step, st.WorldSize, nil
}

func readElasticState(path string) (*elasticState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var st elasticState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("trainer: corrupt elastic checkpoint %s: %w", path, err)
	}
	if st.WorldSize < 1 || st.Step < 0 || len(st.LoaderRNG) != st.WorldSize {
		return nil, fmt.Errorf("trainer: inconsistent elastic checkpoint %s (world %d, step %d, %d rng streams)",
			path, st.WorldSize, st.Step, len(st.LoaderRNG))
	}
	return &st, nil
}

// TrainElastic runs fault-tolerant data-parallel training. On a clean
// run it is TrainDistributed plus periodic checkpoints; when ranks die
// it restarts from the last checkpoint with the survivors, up to
// MaxRestarts times. If CheckpointPath already holds a checkpoint the
// run resumes from it — with the same world size the continuation is
// bit-identical to a run that never stopped.
func TrainElastic(cfg ElasticConfig) (*models.EDSR, ElasticStats, error) {
	var stats ElasticStats
	if cfg.WorldSize < 1 {
		return nil, stats, fmt.Errorf("trainer: elastic world size %d", cfg.WorldSize)
	}
	if cfg.Train.Steps < 1 || cfg.Train.BatchSize < 1 {
		return nil, stats, fmt.Errorf("trainer: invalid config: steps=%d batch=%d", cfg.Train.Steps, cfg.Train.BatchSize)
	}
	ws := cfg.WorldSize
	fault := normalizeFault(cfg.Fault)
	for {
		model, attempt, runErr := runElasticAttempt(cfg, ws, fault)
		stats.Attempts = append(stats.Attempts, attempt)
		if runErr == nil {
			return model, stats, nil
		}
		if cfg.CheckpointPath == "" {
			return nil, stats, fmt.Errorf("trainer: rank failure without a checkpoint to restart from: %w", runErr)
		}
		if stats.Restarts >= cfg.MaxRestarts {
			return nil, stats, fmt.Errorf("trainer: giving up after %d restart(s): %w", stats.Restarts, runErr)
		}
		survivors := attempt.survivors
		if survivors < 1 {
			return nil, stats, fmt.Errorf("trainer: no survivors to restart with: %w", runErr)
		}
		if cfg.Train.Log != nil {
			fmt.Fprintf(cfg.Train.Log, "elastic: %s; restarting with %d rank(s) from %s\n",
				firstLine(runErr.Error()), survivors, cfg.CheckpointPath)
		}
		// Mark the restart boundary on rank 0's timeline and in the live
		// metrics so a trace of a recovered run shows where the old world
		// ended and the shrunken one began.
		cfg.Train.Trace.Recorder(0).EmitInstant(trace.CatRestart, trace.TrackMain, 0)
		if tm := cfg.Train.Metrics; tm != nil {
			tm.Restarts.Inc()
			tm.FailedRanks.Add(int64(ws - survivors))
		}
		ws = survivors
		fault = mpi.NoFaults() // the injected fault fired; restarts run clean
		stats.Restarts++
	}
}

// firstLine trims a multi-rank errors.Join message to its root cause.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func normalizeFault(p mpi.FaultPlan) mpi.FaultPlan {
	// The zero value of FaultPlan targets rank 0 everywhere; treat "all
	// zero" as "no faults" so callers need not know the -1 convention.
	if p == (mpi.FaultPlan{}) {
		return mpi.NoFaults()
	}
	return p
}

// runElasticAttempt executes one world until the configured step count
// or the first failure. It resumes from CheckpointPath when present.
func runElasticAttempt(cfg ElasticConfig, ws int, fault mpi.FaultPlan) (*models.EDSR, AttemptStats, error) {
	at := AttemptStats{WorldSize: ws, StartStep: 0}
	var st *elasticState
	if cfg.CheckpointPath != "" {
		if loaded, err := readElasticState(cfg.CheckpointPath); err == nil {
			st = loaded
			at.StartStep = st.Step
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, at, err
		}
	}
	if at.StartStep >= cfg.Train.Steps {
		// Nothing left to do; rebuild rank 0's model from the checkpoint.
		model := models.NewEDSR(cfg.Train.Model, tensor.NewRNG(cfg.Train.Seed))
		if err := restoreParams(model, st); err != nil {
			return nil, at, err
		}
		at.EndStep = at.StartStep
		return model, at, nil
	}

	world := mpi.NewWorld(ws)
	world.SetRecvTimeout(cfg.RecvTimeout)
	world.SetFaultPlan(fault)
	if cfg.Train.GPUsPerNode > 0 {
		world.SetGPUsPerNode(cfg.Train.GPUsPerNode)
	}

	outs := make([]rankProgress, ws)
	runErr := world.Run(func(c *mpi.Comm) {
		// The progress struct is updated in place every step so that a
		// failed attempt still reports how far it got and what the loss
		// looked like (a panic unwinds past any return value).
		elasticRankLoop(cfg, c, st, &outs[c.Rank()])
	})
	at.survivors = len(world.Survivors())
	o := outs[0]
	if o.steps > 0 {
		at.AvgLoss = o.lossSum / float64(o.steps)
		at.FinalLoss = o.last
	}
	at.EndStep = at.StartStep + o.steps
	if runErr != nil {
		at.Err = runErr.Error()
		return nil, at, runErr
	}
	if o.err != nil {
		at.Err = o.err.Error()
		return nil, at, o.err
	}
	for r := range outs {
		if outs[r].err != nil {
			at.Err = outs[r].err.Error()
			return nil, at, fmt.Errorf("rank %d: %w", r, outs[r].err)
		}
	}
	return o.model, at, nil
}

// rankProgress is one rank's incrementally-updated training state; it
// survives a mid-step panic so failed attempts still report stats.
type rankProgress struct {
	model   *models.EDSR
	lossSum float64
	steps   int
	last    float64
	err     error
}

// elasticRankLoop is one rank's fault-aware training loop: trainRank
// plus state restore, per-step fault points, and periodic distributed
// checkpoints.
func elasticRankLoop(cfg ElasticConfig, c *mpi.Comm, st *elasticState, out *rankProgress) {
	rank, ws := c.Rank(), c.Size()
	tcfg := cfg.Train
	rng := tensor.NewRNG(tcfg.Seed) // identical weights pre-broadcast
	model := models.NewEDSR(tcfg.Model, rng)
	out.model = model
	params := model.Params()
	if err := nn.CheckUniqueNames(params); err != nil {
		out.err = err
		return
	}

	ds := data.NewDataset(tcfg.Data)
	loader, err := data.NewLoader(ds, data.LoaderConfig{
		BatchSize: tcfg.BatchSize,
		PatchSize: tcfg.PatchSize,
		Scale:     tcfg.Model.Scale,
		Rank:      rank,
		WorldSize: ws,
		Seed:      loaderSeed(tcfg.Seed, st),
	})
	if err != nil {
		out.err = err
		return
	}

	opt := nn.NewAdam(params, tcfg.LR)
	start := 0
	if st != nil {
		if err := restoreParams(model, st); err != nil {
			out.err = err
			return
		}
		m, v, _ := opt.State()
		if len(st.AdamM) != len(m) || len(st.AdamV) != len(v) {
			out.err = fmt.Errorf("trainer: optimizer state size mismatch in checkpoint")
			return
		}
		for i := range m {
			m[i].CopyFrom(st.AdamM[i])
			v[i].CopyFrom(st.AdamV[i])
		}
		opt.SetStep(st.AdamStep)
		start = st.Step
		if st.WorldSize == ws {
			// Same world: resume each rank's exact sampling stream so the
			// continuation is bit-identical to a run that never stopped.
			loader.SetRNGState(st.LoaderRNG[rank])
		}
		// Shrunk world: the loader above was already built with the new
		// sharding and a seed mixed from the checkpoint step, so the
		// restarted run is deterministic (two restarts from the same
		// checkpoint draw identical batches) even though it cannot match
		// the dead world's stream.
	}

	fn, err := tcfg.newAllreduceFn()
	if err != nil {
		out.err = err
		return
	}
	engine := horovod.NewEngine(engineComm(tcfg, c), horovod.Config{
		FusionThresholdBytes: tcfg.fusionThreshold(cfg.FusionThresholdBytes),
		CycleTime:            0, // in-process ranks negotiate eagerly
		Average:              true,
		Algo:                 mpi.AlgoRing,
		AllreduceFn:          fn,
		Trace:                tcfg.Trace.Recorder(rank),
		Metrics:              rankMetrics(tcfg, rank),
	})
	dopt := horovod.NewDistributedOptimizer(opt, engine)
	model.SetGradHook(dopt.GradHook())
	engine.Start()
	defer engine.Shutdown()
	horovod.BroadcastParameters(c, params, 0)
	horovod.ScaleLR(opt, ws)
	schedule := nn.StepLRSchedule{Base: tcfg.LR * float64(ws), DecayEvery: tcfg.LRDecayEvery, Gamma: 0.5}

	rec := tcfg.Trace.Recorder(rank)
	tm := rankMetrics(tcfg, rank)
	if tm != nil {
		tm.WorldSize.Set(float64(ws))
	}
	loss := nn.L1Loss{}
	var gradBuf *tensor.Tensor
	for step := start; step < tcfg.Steps; step++ {
		c.FaultPoint(step)
		if tcfg.LRDecayEvery > 0 {
			schedule.Apply(opt, step)
		}
		batch := loader.Next()
		stepStart := time.Now()
		stepSpan := rec.Now()
		dopt.ZeroGrad()
		fwdSpan := rec.Now()
		pred := model.Forward(batch.LR)
		rec.Emit(trace.CatForward, trace.TrackMain, fwdSpan, 0)
		l, grad := loss.ForwardBuf(gradBuf, pred, batch.HR)
		gradBuf = grad
		bwdSpan := rec.Now()
		model.Backward(grad)
		rec.Emit(trace.CatBackward, trace.TrackMain, bwdSpan, 0)
		dopt.Step()
		rec.Emit(trace.CatStep, trace.TrackMain, stepSpan, 0)
		if tm != nil {
			tm.ObserveStep(tcfg.BatchSize*ws, time.Since(stepStart), 0)
		}
		out.lossSum += l
		out.last = l
		out.steps++
		if tcfg.LogEvery > 0 && tcfg.Log != nil && rank == 0 && (step+1)%tcfg.LogEvery == 0 {
			fmt.Fprintf(tcfg.Log, "step %4d  loss %.5f  world %d\n", step+1, l, ws)
		}
		if cfg.CheckpointPath != "" &&
			(step+1 == tcfg.Steps || (cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0)) {
			ckSpan := rec.Now()
			if err := writeElasticCheckpoint(cfg, c, step+1, params, opt, loader); err != nil {
				out.err = err
				return
			}
			rec.Emit(trace.CatCheckpoint, trace.TrackMain, ckSpan, 0)
			if tm != nil {
				tm.Checkpoints.Inc()
			}
		}
	}
	// Merge spans on rank 0 while the world is still healthy; failed
	// attempts skip this (the trace keeps what rank 0 recorded locally).
	tcfg.Trace.Gather(c, 0)
}

// loaderSeed derives the loader's base seed. Fresh runs use the same
// derivation as trainRank; a run resumed into a *different* world size
// mixes in the checkpoint step so the re-sharded streams are fresh but
// deterministic.
func loaderSeed(seed uint64, st *elasticState) uint64 {
	s := seed + 100
	if st != nil {
		s += uint64(st.Step) * 7919
	}
	return s
}

// restoreParams copies checkpoint values into the model.
func restoreParams(model *models.EDSR, st *elasticState) error {
	if st == nil {
		return fmt.Errorf("trainer: nil elastic state")
	}
	params := model.Params()
	if len(params) != len(st.Names) {
		return fmt.Errorf("trainer: checkpoint has %d tensors, model %d", len(st.Names), len(params))
	}
	for i, p := range params {
		if p.Name != st.Names[i] {
			return fmt.Errorf("trainer: checkpoint tensor %q does not match %q", st.Names[i], p.Name)
		}
		if !p.Value.SameShape(st.Values[i]) {
			return fmt.Errorf("trainer: shape mismatch for %q", p.Name)
		}
		p.Value.CopyFrom(st.Values[i])
	}
	return nil
}

// writeElasticCheckpoint gathers every rank's loader RNG stream on rank
// 0 and writes the full training state atomically. All ranks call it at
// the same step; only rank 0 touches the filesystem. RNG states travel
// through the float32 substrate as raw bit halves — Send/Recv/Gather
// only copy, so the uint64 round-trips exactly.
func writeElasticCheckpoint(cfg ElasticConfig, c *mpi.Comm, step int, params []*nn.Param, opt *nn.Adam, loader *data.Loader) error {
	ws := c.Size()
	state := loader.RNGState()
	in := [2]float32{
		math.Float32frombits(uint32(state)),
		math.Float32frombits(uint32(state >> 32)),
	}
	var out []float32
	if c.Rank() == 0 {
		out = make([]float32, 2*ws)
	}
	c.Gather(in[:], out, 0)
	if c.Rank() != 0 {
		return nil
	}
	st := elasticState{
		Config:    cfg.Train.sanitized(),
		WorldSize: ws,
		Step:      step,
	}
	m, v, adamStep := opt.State()
	st.AdamM, st.AdamV, st.AdamStep = m, v, adamStep
	for _, p := range params {
		st.Names = append(st.Names, p.Name)
		st.Values = append(st.Values, p.Value)
	}
	st.LoaderRNG = make([]uint64, ws)
	for r := 0; r < ws; r++ {
		lo := uint64(math.Float32bits(out[2*r]))
		hi := uint64(math.Float32bits(out[2*r+1]))
		st.LoaderRNG[r] = hi<<32 | lo
	}
	return atomicWriteGob(cfg.CheckpointPath, &st)
}
