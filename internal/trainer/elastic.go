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
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// ElasticConfig drives a fault-tolerant, resumable training run at any
// world size, one rank included. Rank 0 writes an atomic
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
// run resumes from it and trains to Train.Steps in total — with the same
// world size the continuation is bit-identical to a run that never
// stopped.
func TrainElastic(cfg ElasticConfig) (*models.EDSR, ElasticStats, error) {
	var stats ElasticStats
	if cfg.WorldSize < 1 {
		return nil, stats, fmt.Errorf("trainer: elastic world size %d", cfg.WorldSize)
	}
	r := newRun(cfg.Train, cfg.WorldSize)
	r.fusion = cfg.FusionThresholdBytes
	r.ckPath, r.ckEvery = cfg.CheckpointPath, cfg.CheckpointEvery
	r.recvTimeout = cfg.RecvTimeout
	r.fault = normalizeFault(cfg.Fault)
	for {
		at := AttemptStats{WorldSize: r.world}
		r.state = nil
		if cfg.CheckpointPath != "" {
			st, err := readElasticState(cfg.CheckpointPath)
			if err == nil {
				r.state, at.StartStep = st, st.Step
			} else if !errors.Is(err, os.ErrNotExist) {
				return nil, stats, err
			}
		}
		p, survivors, runErr := r.attempt()
		if p == nil { // the config was rejected before any rank ran
			return nil, stats, runErr
		}
		at.EndStep = at.StartStep + p.stats.Steps
		at.AvgLoss, at.FinalLoss = p.avgLoss(), p.stats.FinalLoss
		if runErr != nil {
			at.Err = runErr.Error()
		}
		stats.Attempts = append(stats.Attempts, at)
		if runErr == nil {
			return p.model.(*models.EDSR), stats, nil
		}
		if cfg.CheckpointPath == "" {
			return nil, stats, fmt.Errorf("trainer: rank failure without a checkpoint to restart from: %w", runErr)
		}
		if stats.Restarts >= cfg.MaxRestarts {
			return nil, stats, fmt.Errorf("trainer: giving up after %d restart(s): %w", stats.Restarts, runErr)
		}
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
			tm.FailedRanks.Add(int64(r.world - survivors))
		}
		r.world = survivors
		r.fault = mpi.NoFaults() // the injected fault fired; restarts run clean
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

// restore loads the checkpointed parameters and Adam state.
func (st *elasticState) restore(params []*nn.Param, opt *nn.Adam) error {
	if err := restoreParams(params, st.Names, st.Values); err != nil {
		return err
	}
	m, v, _ := opt.State()
	if len(st.AdamM) != len(m) || len(st.AdamV) != len(v) {
		return fmt.Errorf("trainer: optimizer state size mismatch in checkpoint")
	}
	for i := range m {
		m[i].CopyFrom(st.AdamM[i])
		v[i].CopyFrom(st.AdamV[i])
	}
	opt.SetStep(st.AdamStep)
	return nil
}

// loaderSeed derives the loader's base seed. Fresh runs use seed+100; a
// resumed run mixes in the checkpoint step, so a run resumed into a
// different world size draws fresh but deterministic re-sharded streams
// (a same-size resume restores the saved streams instead).
func loaderSeed(seed uint64, st *elasticState) uint64 {
	s := seed + 100
	if st != nil {
		s += uint64(st.Step) * 7919
	}
	return s
}

// writeElasticCheckpoint gathers every rank's loader RNG stream on rank
// 0 and writes the full training state atomically. All ranks call it at
// the same step; only rank 0 touches the filesystem, then tells every
// rank whether the save succeeded, so a failed save ends the attempt on
// all ranks at this step instead of leaving the others blocked in the
// next step's allreduce. RNG states travel through the float32
// substrate as raw bit halves — Send/Recv/Gather only copy, so the
// uint64 round-trips exactly.
func writeElasticCheckpoint(path string, cfg Config, c *mpi.Comm, step int, params []*nn.Param, opt *nn.Adam, loader *data.Loader) error {
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
	var err error
	saved := [1]float32{1}
	if c.Rank() == 0 {
		st := elasticState{
			Config:    cfg.sanitized(),
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
		if err = atomicWriteGob(path, &st); err != nil {
			saved[0] = 0
		}
	}
	c.Bcast(saved[:], 0)
	if err == nil && saved[0] == 0 {
		err = fmt.Errorf("trainer: rank 0 failed to save the checkpoint at step %d", step)
	}
	return err
}
