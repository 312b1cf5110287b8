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
// stats.
func TrainSingle(cfg Config) (*models.EDSR, Stats, error) {
	return trainRank(cfg, nil, nil)
}

// TrainDistributed trains data-parallel replicas across an in-process MPI
// world, returning rank 0's model and stats. It follows the paper's
// Section III-A recipe: broadcast initial parameters, shard the data,
// wrap the optimizer, scale the learning rate.
func TrainDistributed(cfg Config, worldSize int) (*models.EDSR, Stats, error) {
	if worldSize < 1 {
		return nil, Stats{}, fmt.Errorf("trainer: world size %d", worldSize)
	}
	if worldSize == 1 {
		return TrainSingle(cfg)
	}
	if _, err := cfg.newAllreduceFn(); err != nil {
		return nil, Stats{}, err
	}
	world := mpi.NewWorld(worldSize)
	if cfg.GPUsPerNode > 0 {
		world.SetGPUsPerNode(cfg.GPUsPerNode)
	}
	type out struct {
		m   *models.EDSR
		st  Stats
		err error
	}
	results := make([]out, worldSize)
	if err := world.Run(func(c *mpi.Comm) {
		fn, _ := cfg.newAllreduceFn() // validated above; fresh state per rank
		engine := horovod.NewEngine(engineComm(cfg, c), horovod.Config{
			FusionThresholdBytes: cfg.fusionThreshold(64 << 20),
			CycleTime:            0, // in-process ranks negotiate eagerly
			Average:              true,
			Algo:                 mpi.AlgoRing,
			AllreduceFn:          fn,
			Trace:                cfg.Trace.Recorder(c.Rank()),
			Metrics:              rankMetrics(cfg, c.Rank()),
		})
		m, st, err := trainRank(cfg, c, engine)
		results[c.Rank()] = out{m, st, err}
	}); err != nil {
		return nil, Stats{}, err
	}
	for r, o := range results {
		if o.err != nil {
			return nil, Stats{}, fmt.Errorf("rank %d: %w", r, o.err)
		}
	}
	return results[0].m, results[0].st, nil
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

// trainRank is the shared per-process loop; comm and engine are nil for
// single-process training.
func trainRank(cfg Config, comm *mpi.Comm, engine *horovod.Engine) (*models.EDSR, Stats, error) {
	rank, world := 0, 1
	if comm != nil {
		rank, world = comm.Rank(), comm.Size()
	}
	if cfg.Steps < 1 || cfg.BatchSize < 1 {
		return nil, Stats{}, fmt.Errorf("trainer: invalid config: steps=%d batch=%d", cfg.Steps, cfg.BatchSize)
	}
	rng := tensor.NewRNG(cfg.Seed) // same weights on every rank before broadcast
	model := models.NewEDSR(cfg.Model, rng)
	params := model.Params()
	if err := nn.CheckUniqueNames(params); err != nil {
		return nil, Stats{}, err
	}

	ds := data.NewDataset(cfg.Data)
	loader, err := data.NewLoader(ds, data.LoaderConfig{
		BatchSize: cfg.BatchSize,
		PatchSize: cfg.PatchSize,
		Scale:     cfg.Model.Scale,
		Rank:      rank,
		WorldSize: world,
		Seed:      cfg.Seed + 100,
	})
	if err != nil {
		return nil, Stats{}, err
	}

	var opt nn.Optimizer = nn.NewAdam(params, cfg.LR)
	schedule := nn.StepLRSchedule{Base: cfg.LR, DecayEvery: cfg.LRDecayEvery, Gamma: 0.5}
	var dopt interface {
		Step()
		ZeroGrad()
	} = opt
	var distOpt *horovod.DistributedOptimizer
	if engine != nil {
		distOpt = horovod.NewDistributedOptimizer(opt, engine)
		// Overlap backward with communication: each parameter is submitted
		// for reduction the moment its backward contribution completes.
		model.SetGradHook(distOpt.GradHook())
		engine.Start()
		defer engine.Shutdown()
		horovod.BroadcastParameters(comm, params, 0)
		horovod.ScaleLR(opt, world)
		schedule.Base = cfg.LR * float64(world)
		dopt = distOpt
	}

	rec := cfg.Trace.Recorder(rank)
	tm := rankMetrics(cfg, rank)
	if tm != nil {
		tm.WorldSize.Set(float64(world))
	}
	loss := nn.L1Loss{}
	meter := metrics.ThroughputMeter{WarmupSteps: 1}
	var lossSum, lastLoss float64
	var gradBuf *tensor.Tensor
	var memWarm runtime.MemStats
	start := time.Now()
	for step := 0; step < cfg.Steps; step++ {
		if cfg.LRDecayEvery > 0 {
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
		stepDur := time.Since(stepStart)
		meter.Record(cfg.BatchSize*world, stepDur.Seconds())
		tm.ObserveStep(cfg.BatchSize*world, stepDur, meter.ImagesPerSecond())
		lossSum += l
		lastLoss = l
		if step == 0 {
			// Step 0 grows every scratch buffer; the allocation meter
			// starts after it so it reflects steady state.
			runtime.ReadMemStats(&memWarm)
		}
		if cfg.LogEvery > 0 && cfg.Log != nil && (step+1)%cfg.LogEvery == 0 && rank == 0 {
			fmt.Fprintf(cfg.Log, "step %4d  loss %.5f  lr %.2e  %.1f img/s\n",
				step+1, l, opt.LR(), meter.ImagesPerSecond())
		}
	}
	st := Stats{
		Steps:        cfg.Steps,
		FinalLoss:    lastLoss,
		AvgLoss:      lossSum / float64(cfg.Steps),
		ImagesPerSec: meter.ImagesPerSecond(),
		WallSeconds:  time.Since(start).Seconds(),
	}
	if distOpt != nil {
		if total, n := distOpt.DrainStats(); n > 0 {
			st.DrainMsPerStep = total.Seconds() * 1e3 / float64(n)
		}
	}
	if cfg.Steps > 1 {
		var memEnd runtime.MemStats
		runtime.ReadMemStats(&memEnd)
		st.AllocsPerStep = float64(memEnd.Mallocs-memWarm.Mallocs) / float64(cfg.Steps-1)
	}
	if comm != nil {
		// Merge every rank's spans on rank 0 before the world tears down.
		cfg.Trace.Gather(comm, 0)
	}
	return model, st, nil
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

// LoadCheckpoint restores a model saved by SaveCheckpoint.
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
	params := model.Params()
	if len(params) != len(ck.Names) {
		return nil, Config{}, fmt.Errorf("trainer: checkpoint has %d tensors, model %d", len(ck.Names), len(params))
	}
	for i, p := range params {
		if p.Name != ck.Names[i] {
			return nil, Config{}, fmt.Errorf("trainer: checkpoint tensor %q does not match model %q", ck.Names[i], p.Name)
		}
		if !p.Value.SameShape(ck.Values[i]) {
			return nil, Config{}, fmt.Errorf("trainer: shape mismatch for %q", p.Name)
		}
		p.Value.CopyFrom(ck.Values[i])
	}
	return model, ck.Config, nil
}
