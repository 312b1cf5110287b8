// Package trainer implements real (CPU) training loops for the
// super-resolution models: single-process training and Horovod-style
// data-parallel training over the in-process MPI substrate, with
// throughput metering, PSNR evaluation against the bicubic baseline, and
// gob checkpoints.
package trainer

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/collective"
	"repro/internal/data"
	"repro/internal/horovod"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Config drives a training run.
type Config struct {
	// Model configuration (EDSR).
	Model models.EDSRConfig
	// Data generation parameters.
	Data data.SyntheticConfig
	// Steps of training.
	Steps int
	// BatchSize per process.
	BatchSize int
	// PatchSize (LR pixels).
	PatchSize int
	// LR is the base learning rate (scaled by world size when
	// distributed, per the Horovod guideline).
	LR float64
	// LRDecayEvery halves the learning rate every this many steps
	// (0 disables; EDSR's published schedule uses 2e5).
	LRDecayEvery int
	// Seed for weights and data sampling.
	Seed uint64
	// Compression selects the gradient-compression allreduce variant for
	// distributed runs: "" or "none" (exact float32 ring), "fp16"
	// (half-precision wire), "topk" (top-k sparsification with error
	// feedback), "hier" / "hier-fp16" (two-level node-aware reduction,
	// exact or fp16 inter-node wire).
	Compression string
	// TopKRatio keeps ⌈n/ratio⌉ elements per gradient bucket under
	// "topk" (0 = the default 32, i.e. ~3% density).
	TopKRatio int
	// GPUsPerNode sets the world's node topology for the "hier" variants
	// (0 = 1 GPU per node).
	GPUsPerNode int
	// LogEvery prints progress every N steps to Log (0 disables).
	LogEvery int
	// Log receives progress lines (nil for no logging).
	Log io.Writer
	// Trace, when non-nil, records per-phase spans (step, forward,
	// backward, grad hooks, engine reductions, drain, checkpoints) on
	// every rank; gather the merged timeline with Trace.Timeline().
	// Runtime-only, like Log: stripped before checkpoint serialization.
	Trace *trace.Session
	// Metrics, when non-nil, receives live counters/gauges/histograms
	// (rank 0 updates them); serve with trace.ServeMetrics.
	// Runtime-only, like Log.
	Metrics *trace.TrainMetrics
}

// sanitized strips the runtime-only fields (writers, tracing, metrics)
// that cannot or should not be serialized into checkpoints.
func (c Config) sanitized() Config {
	c.Log = nil
	c.Trace = nil
	c.Metrics = nil
	return c
}

// DefaultConfig returns a laptop-scale configuration that trains a tiny
// EDSR for real.
func DefaultConfig() Config {
	return Config{
		Model:     models.EDSRTiny(),
		Data:      data.SyntheticConfig{Images: 64, Height: 48, Width: 48, Channels: 3, Seed: 7},
		Steps:     60,
		BatchSize: 4,
		PatchSize: 12,
		LR:        1e-3,
		Seed:      1,
	}
}

// defaultTopKRatio is the sparsification rate used when TopKRatio is
// unset: keep 1/32 of each bucket, DGC's moderate operating point.
const defaultTopKRatio = 32

// newAllreduceFn resolves the configured compression variant to a fresh
// engine AllreduceFn, nil meaning the exact backend ring. Call it once
// per rank: the top-k variant carries per-rank error-feedback state that
// must never be shared across ranks.
func (c Config) newAllreduceFn() (func(*mpi.Comm, []float32) error, error) {
	ratio := c.TopKRatio
	if ratio == 0 {
		ratio = defaultTopKRatio
	}
	return collective.NewAllreduceFnByName(c.Compression, ratio)
}

// fusionThreshold returns the engine fusion threshold the compression
// variant requires. Top-k needs unfused reductions: its error-feedback
// residuals are keyed by buffer identity, so every tensor must reduce in
// its own stable registered buffer, not a recycled fusion buffer (unfused
// also keeps its runs deterministic). The other variants keep the
// caller's threshold.
func (c Config) fusionThreshold(threshold int64) int64 {
	if c.Compression == "topk" {
		return 1
	}
	return threshold
}

// Stats summarizes a completed run.
type Stats struct {
	Steps        int
	FinalLoss    float64
	AvgLoss      float64
	ImagesPerSec float64
	WallSeconds  float64
	// AllocsPerStep is the mean number of heap allocations per training
	// step after the first (warm-up) step, measured process-wide with
	// runtime.ReadMemStats. With the scratch-pool kernels the model's
	// forward/backward is allocation-free at steady state, so this mostly
	// counts the data loader and logging; it is only meaningful for
	// single-process runs (distributed ranks share the process counters).
	AllocsPerStep float64
	// PSNRModel and PSNRBicubic compare the trained model against the
	// classical baseline on held-out images (computed by Evaluate).
	PSNRModel   float64
	PSNRBicubic float64
	// DrainMsPerStep is the mean exposed communication wait per step —
	// the milliseconds DistributedOptimizer.Drain blocked after backward
	// finished. Zero for single-process runs; the lower it is relative
	// to total allreduce time, the more communication the overlapped
	// backward actually hid.
	DrainMsPerStep float64
}

// TrainSingle trains an EDSR on one process and returns the model and
// stats. It is TrainDistributed at world size 1.
func TrainSingle(cfg Config) (*models.EDSR, Stats, error) {
	return TrainDistributed(cfg, 1)
}

// TrainDistributed trains data-parallel replicas across an in-process MPI
// world, returning rank 0's model and stats. It follows the paper's
// Section III-A recipe: broadcast initial parameters, shard the data,
// wrap the optimizer, scale the learning rate.
func TrainDistributed(cfg Config, worldSize int) (*models.EDSR, Stats, error) {
	if worldSize < 1 {
		return nil, Stats{}, fmt.Errorf("trainer: world size %d", worldSize)
	}
	p, _, err := newRun(cfg, worldSize).attempt()
	if err != nil {
		return nil, Stats{}, err
	}
	return p.model.(*models.EDSR), p.stats, nil
}

// run is one attempt of the per-rank training loop: the single, the
// distributed, the elastic and the zoo entry points all build one and
// call attempt.
type run struct {
	cfg   Config
	world int
	// build constructs the model and its input transform from the seeded
	// RNG; scale is the super-resolution factor the loader cuts for.
	build func(*tensor.RNG) (SRModel, func(*tensor.Tensor) *tensor.Tensor, error)
	scale int
	// fusion is the Horovod engine's fusion threshold (worlds > 1 only).
	fusion int64
	// state, when non-nil, is the checkpoint the ranks resume from.
	state *elasticState
	// ckPath, when set, receives the full training state every ckEvery
	// steps and after the last step.
	ckPath      string
	ckEvery     int
	recvTimeout time.Duration
	fault       mpi.FaultPlan
}

// newRun returns a run of cfg's EDSR on worldSize ranks with the default
// 64 MiB fusion threshold, no checkpoints and no faults.
func newRun(cfg Config, worldSize int) *run {
	return &run{
		cfg:   cfg,
		world: worldSize,
		build: func(rng *tensor.RNG) (SRModel, func(*tensor.Tensor) *tensor.Tensor, error) {
			return models.NewEDSR(cfg.Model, rng), identity, nil
		},
		scale:  cfg.Model.Scale,
		fusion: 64 << 20,
		fault:  mpi.NoFaults(),
	}
}

func identity(t *tensor.Tensor) *tensor.Tensor { return t }

// rankProgress is one rank's training state, updated in place every step
// so that a failed attempt still reports how far it got and what the loss
// looked like (a panic unwinds past any return value).
type rankProgress struct {
	model   SRModel
	pre     func(*tensor.Tensor) *tensor.Tensor
	stats   Stats // Steps and FinalLoss live; the rest set after the last step
	lossSum float64
	err     error
}

// avgLoss is the mean loss over the steps this attempt ran.
func (p *rankProgress) avgLoss() float64 {
	if p.stats.Steps == 0 {
		return 0
	}
	return p.lossSum / float64(p.stats.Steps)
}

// attempt runs every rank of a fresh world from r.state (or from scratch)
// to cfg.Steps. It returns rank 0's progress, the number of ranks that
// survive into a restart, and the first failure.
func (r *run) attempt() (*rankProgress, int, error) {
	if r.cfg.Steps < 1 || r.cfg.BatchSize < 1 {
		return nil, 0, fmt.Errorf("trainer: invalid config: steps=%d batch=%d", r.cfg.Steps, r.cfg.BatchSize)
	}
	world := mpi.NewWorld(r.world)
	world.SetRecvTimeout(r.recvTimeout)
	world.SetFaultPlan(r.fault)
	if r.cfg.GPUsPerNode > 0 {
		world.SetGPUsPerNode(r.cfg.GPUsPerNode)
	}
	outs := make([]rankProgress, r.world)
	err := world.Run(func(c *mpi.Comm) { r.rank(c, &outs[c.Rank()]) })
	for i := range outs {
		if err == nil && outs[i].err != nil {
			err = fmt.Errorf("rank %d: %w", i, outs[i].err)
		}
	}
	return &outs[0], len(world.Survivors()), err
}

// rank is the per-rank training loop. It builds the model, loader and
// Adam, restores r.state, and — in worlds of more than one rank — starts
// the Horovod engine, broadcasts rank 0's weights and scales the LR. Each
// step then passes the fault point, applies the LR schedule, and runs
// forward, L1 loss, backward and the (distributed) update, with a trace
// span per phase, live metrics on rank 0, and a checkpoint when due.
func (r *run) rank(c *mpi.Comm, out *rankProgress) {
	cfg := r.cfg
	rank, ws := c.Rank(), c.Size()
	model, pre, err := r.build(tensor.NewRNG(cfg.Seed)) // same weights on every rank before broadcast
	if err != nil {
		out.err = err
		return
	}
	out.model, out.pre = model, pre
	params := model.Params()
	if err := nn.CheckUniqueNames(params); err != nil {
		out.err = err
		return
	}
	loader, err := data.NewLoader(data.NewDataset(cfg.Data), data.LoaderConfig{
		BatchSize: cfg.BatchSize,
		PatchSize: cfg.PatchSize,
		Scale:     r.scale,
		Rank:      rank,
		WorldSize: ws,
		Seed:      loaderSeed(cfg.Seed, r.state),
	})
	if err != nil {
		out.err = err
		return
	}

	opt := nn.NewAdam(params, cfg.LR)
	start := 0
	if st := r.state; st != nil {
		if err := st.restore(params, opt); err != nil {
			out.err = err
			return
		}
		start = st.Step
		if st.WorldSize == ws {
			// Same world: resume each rank's exact sampling stream so the
			// continuation is bit-identical to a run that never stopped.
			loader.SetRNGState(st.LoaderRNG[rank])
		}
		// Other world: the loader above was built with the new sharding
		// and a seed mixed from the checkpoint step, so the restarted run
		// is deterministic even though it cannot match the old stream.
	}

	var dopt interface {
		Step()
		ZeroGrad()
	} = opt
	var distOpt *horovod.DistributedOptimizer
	if ws > 1 {
		fn, err := cfg.newAllreduceFn() // fresh state per rank
		if err != nil {
			out.err = err
			return
		}
		engine := horovod.NewEngine(engineComm(cfg, c), horovod.Config{
			FusionThresholdBytes: cfg.fusionThreshold(r.fusion),
			CycleTime:            0, // in-process ranks negotiate eagerly
			Average:              true,
			Algo:                 mpi.AlgoRing,
			AllreduceFn:          fn,
			Trace:                cfg.Trace.Recorder(rank),
			Metrics:              rankMetrics(cfg, rank),
		})
		distOpt = horovod.NewDistributedOptimizer(opt, engine)
		// Overlap backward with communication: each parameter is submitted
		// for reduction the moment its backward contribution completes.
		if h, ok := model.(interface{ SetGradHook(nn.GradHook) }); ok {
			h.SetGradHook(distOpt.GradHook())
		}
		engine.Start()
		defer engine.Shutdown()
		horovod.BroadcastParameters(c, params, 0)
		horovod.ScaleLR(opt, ws)
		dopt = distOpt
	}
	schedule := nn.StepLRSchedule{Base: cfg.LR * float64(ws), DecayEvery: cfg.LRDecayEvery, Gamma: 0.5}

	rec := cfg.Trace.Recorder(rank)
	tm := rankMetrics(cfg, rank)
	if tm != nil {
		tm.WorldSize.Set(float64(ws))
	}
	meter := metrics.ThroughputMeter{WarmupSteps: 1}
	var gradBuf *tensor.Tensor
	var memWarm runtime.MemStats
	begin := time.Now()
	for step := start; step < cfg.Steps; step++ {
		c.FaultPoint(step)
		if cfg.LRDecayEvery > 0 {
			schedule.Apply(opt, step)
		}
		batch := loader.Next()
		stepStart := time.Now()
		stepSpan := rec.Now()
		dopt.ZeroGrad()
		fwdSpan := rec.Now()
		pred := model.Forward(pre(batch.LR))
		rec.Emit(trace.CatForward, trace.TrackMain, fwdSpan, 0)
		l, grad := nn.L1Loss{}.ForwardBuf(gradBuf, pred, batch.HR)
		gradBuf = grad
		bwdSpan := rec.Now()
		model.Backward(grad)
		rec.Emit(trace.CatBackward, trace.TrackMain, bwdSpan, 0)
		dopt.Step()
		rec.Emit(trace.CatStep, trace.TrackMain, stepSpan, 0)
		stepDur := time.Since(stepStart)
		meter.Record(cfg.BatchSize*ws, stepDur.Seconds())
		tm.ObserveStep(cfg.BatchSize*ws, stepDur, meter.ImagesPerSecond())
		out.lossSum += l
		out.stats.FinalLoss = l
		out.stats.Steps++
		if out.stats.Steps == 1 {
			// The first step grows every scratch buffer; the allocation
			// meter starts after it so it reflects steady state.
			runtime.ReadMemStats(&memWarm)
		}
		if cfg.LogEvery > 0 && cfg.Log != nil && rank == 0 && (step+1)%cfg.LogEvery == 0 {
			fmt.Fprintf(cfg.Log, "step %4d  loss %.5f  lr %.2e  %.1f img/s  world %d\n",
				step+1, l, opt.LR(), meter.ImagesPerSecond(), ws)
		}
		if r.ckPath != "" && (step+1 == cfg.Steps || (r.ckEvery > 0 && (step+1)%r.ckEvery == 0)) {
			ckSpan := rec.Now()
			if err := writeElasticCheckpoint(r.ckPath, cfg, c, step+1, params, opt, loader); err != nil {
				out.err = err
				return
			}
			rec.Emit(trace.CatCheckpoint, trace.TrackMain, ckSpan, 0)
			if tm != nil {
				tm.Checkpoints.Inc()
			}
		}
	}
	st := &out.stats
	st.AvgLoss = out.avgLoss()
	st.ImagesPerSec = meter.ImagesPerSecond()
	st.WallSeconds = time.Since(begin).Seconds()
	if distOpt != nil {
		if total, n := distOpt.DrainStats(); n > 0 {
			st.DrainMsPerStep = total.Seconds() * 1e3 / float64(n)
		}
	}
	if st.Steps > 1 {
		var memEnd runtime.MemStats
		runtime.ReadMemStats(&memEnd)
		st.AllocsPerStep = float64(memEnd.Mallocs-memWarm.Mallocs) / float64(st.Steps-1)
	}
	// Merge every rank's spans on rank 0 while the world is still
	// healthy; failed attempts skip this (the trace keeps what each rank
	// recorded locally).
	cfg.Trace.Gather(c, 0)
}

// engineComm prepares the communicator the Horovod engine runs its
// collectives on. With tracing enabled the engine gets a fork whose
// Tracer lands spans on the engine track, and the rank's own Comm traces
// onto the trainer track; without tracing the engine shares c directly.
func engineComm(cfg Config, c *mpi.Comm) *mpi.Comm {
	if cfg.Trace == nil {
		return c
	}
	rec := cfg.Trace.Recorder(c.Rank())
	c.Tracer = rec.Sink(trace.TrackMain)
	ec := c.Fork()
	ec.Tracer = rec.Sink(trace.TrackEngine)
	return ec
}

// rankMetrics returns the live-metrics bundle for a rank: rank 0 only,
// so per-step counters reflect global steps, not steps × world size.
func rankMetrics(cfg Config, rank int) *trace.TrainMetrics {
	if rank != 0 {
		return nil
	}
	return cfg.Metrics
}

// Evaluate computes mean PSNR of the model's super-resolution and of
// bicubic upscaling over n held-out images (generated past the training
// set by index offset).
func Evaluate(model *models.EDSR, cfg Config, n int) (psnrModel, psnrBicubic float64) {
	eval := data.NewDataset(data.SyntheticConfig{
		Images:   cfg.Data.Images + n,
		Height:   cfg.Data.Height,
		Width:    cfg.Data.Width,
		Channels: cfg.Data.Channels,
		Seed:     cfg.Data.Seed,
	})
	var pm, pb float64
	for i := 0; i < n; i++ {
		lr, hr := eval.Pair(cfg.Data.Images+i, cfg.Model.Scale)
		sr := model.Forward(lr)
		sr.Clamp(0, 1)
		bi := models.BicubicUpscale(lr, cfg.Model.Scale)
		bi.Clamp(0, 1)
		pm += metrics.PSNR(sr, hr, 1)
		pb += metrics.PSNR(bi, hr, 1)
	}
	return pm / float64(n), pb / float64(n)
}

// EvaluateDistributed computes mean PSNR over n held-out images with the
// work sharded across the communicator's ranks; per-rank partial sums are
// combined with an allreduce — the standard Horovod evaluation pattern
// (metric tensors are allreduced exactly like gradients). Every rank
// returns the identical global means.
func EvaluateDistributed(comm *mpi.Comm, model *models.EDSR, cfg Config, n int) (psnrModel, psnrBicubic float64) {
	eval := data.NewDataset(data.SyntheticConfig{
		Images:   cfg.Data.Images + n,
		Height:   cfg.Data.Height,
		Width:    cfg.Data.Width,
		Channels: cfg.Data.Channels,
		Seed:     cfg.Data.Seed,
	})
	// Rank r scores images ≡ r (mod size); sums travel as a 3-element
	// metric tensor (psnr, bicubic, count).
	sums := make([]float32, 3)
	for i := comm.Rank(); i < n; i += comm.Size() {
		lr, hr := eval.Pair(cfg.Data.Images+i, cfg.Model.Scale)
		sr := model.Forward(lr)
		sr.Clamp(0, 1)
		bi := models.BicubicUpscale(lr, cfg.Model.Scale)
		bi.Clamp(0, 1)
		sums[0] += float32(metrics.PSNR(sr, hr, 1))
		sums[1] += float32(metrics.PSNR(bi, hr, 1))
		sums[2]++
	}
	comm.AllreduceSum(sums, mpi.AlgoRing)
	if sums[2] == 0 {
		return 0, 0
	}
	return float64(sums[0] / sums[2]), float64(sums[1] / sums[2])
}

// checkpoint is the serialized training state.
type checkpoint struct {
	Config Config
	Names  []string
	Values []*tensor.Tensor
}

// SaveCheckpoint writes the model parameters and config to path,
// atomically (see atomicWrite): a crash mid-save cannot destroy the
// previous checkpoint.
func SaveCheckpoint(path string, model *models.EDSR, cfg Config) error {
	ck := checkpoint{Config: cfg.sanitized()}
	for _, p := range model.Params() {
		ck.Names = append(ck.Names, p.Name)
		ck.Values = append(ck.Values, p.Value)
	}
	return atomicWriteGob(path, &ck)
}

// LoadCheckpoint restores a model saved by SaveCheckpoint or from the
// full training state a checkpointed TrainElastic run writes: gob matches
// the shared Config/Names/Values fields and skips the rest.
func LoadCheckpoint(path string) (*models.EDSR, Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Config{}, err
	}
	defer f.Close()
	var ck checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, Config{}, err
	}
	model := models.NewEDSR(ck.Config.Model, tensor.NewRNG(1))
	if err := restoreParams(model.Params(), ck.Names, ck.Values); err != nil {
		return nil, Config{}, err
	}
	return model, ck.Config, nil
}

// restoreParams copies checkpointed tensors into params after checking
// that the checkpoint names the same tensors, in the same order, with
// the same shapes.
func restoreParams(params []*nn.Param, names []string, values []*tensor.Tensor) error {
	if len(params) != len(names) || len(values) != len(names) {
		return fmt.Errorf("trainer: checkpoint has %d tensors, model %d", len(names), len(params))
	}
	for i, p := range params {
		if p.Name != names[i] {
			return fmt.Errorf("trainer: checkpoint tensor %q does not match model %q", names[i], p.Name)
		}
		if !p.Value.SameShape(values[i]) {
			return fmt.Errorf("trainer: shape mismatch for %q", p.Name)
		}
		p.Value.CopyFrom(values[i])
	}
	return nil
}
