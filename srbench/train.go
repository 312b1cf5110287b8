package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/horovod"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// trainSpec is one training workload's full configuration.
type trainSpec struct {
	Model         models.EDSRConfig    `json:"model"`
	Data          data.SyntheticConfig `json:"data"`
	World         int                  `json:"world"`
	TensorWorkers int                  `json:"tensor_workers"`
	Batch         int                  `json:"batch"`
	Patch         int                  `json:"patch"`
	LR            float64              `json:"lr"`
	FusionBytes   int64                `json:"fusion_threshold_bytes"`
	Allreduce     string               `json:"allreduce"`
	LossSteps     int                  `json:"loss_steps"`
	Setups        int                  `json:"setups"`
	Windows       int                  `json:"windows"`
	Loop          string               `json:"loop"`
}

// trainerConfig is the trainer.Config the benchmark loop replicates.
func (s trainSpec) trainerConfig(seed uint64, steps int) trainer.Config {
	return trainer.Config{
		Model: s.Model, Data: s.Data, Steps: steps,
		BatchSize: s.Batch, PatchSize: s.Patch, LR: s.LR, Seed: seed,
	}
}

func trainCommSpec() trainSpec {
	return trainSpec{
		Model:         models.EDSRConfig{NumBlocks: 4, NumFeats: 128, Scale: 2, ResScale: 0.1, Colors: 3},
		Data:          data.SyntheticConfig{Images: 64, Height: 32, Width: 32, Channels: 3},
		World:         2,
		TensorWorkers: 1,
		Batch:         1,
		Patch:         4,
		LR:            1e-3,
		FusionBytes:   64 << 20,
		Allreduce:     "exact ring (mpi.AlgoRing), horovod defaults, CycleTime 0",
		LossSteps:     40,
	}
}

func runTrainComm(o opts) (*outcome, error) { return runTrain(o, trainCommSpec()) }

// phase indexes the per-step rows of the traced breakdown, in step order.
type phase int

const (
	phData phase = iota
	phZeroGrad
	phForward
	phLoss
	phBackward
	phDrain
	phOptim
	numPhases
)

var phaseNames = [numPhases]string{
	"data.next_ms", "nn.zero_grad_ms", "models.forward_ms", "nn.loss_ms",
	"models.backward_ms", "horovod.drain_ms", "nn.optim_ms",
}

// rank is one process's training state, built the way
// trainer.TrainDistributed builds it, so the same seed gives the same
// loss bit for bit.
type rank struct {
	model   *models.EDSR
	loader  *data.Loader
	opt     *nn.Adam
	dopt    *horovod.DistributedOptimizer
	engine  *horovod.Engine
	gradBuf *tensor.Tensor
}

func newRank(s trainSpec, seed uint64, c *mpi.Comm, arFn func(*mpi.Comm, []float32) error) (*rank, error) {
	r, world := c.Rank(), c.Size()
	cfg := s.trainerConfig(seed, 1)
	m := models.NewEDSR(cfg.Model, tensor.NewRNG(cfg.Seed))
	loader, err := data.NewLoader(data.NewDataset(cfg.Data), data.LoaderConfig{
		BatchSize: cfg.BatchSize, PatchSize: cfg.PatchSize, Scale: cfg.Model.Scale,
		Rank: r, WorldSize: world, Seed: cfg.Seed + 100,
	})
	if err != nil {
		return nil, err
	}
	st := &rank{model: m, loader: loader, opt: nn.NewAdam(m.Params(), cfg.LR)}
	st.engine = horovod.NewEngine(c, horovod.Config{
		FusionThresholdBytes: s.FusionBytes,
		Average:              true,
		Algo:                 mpi.AlgoRing,
		AllreduceFn:          arFn,
	})
	st.dopt = horovod.NewDistributedOptimizer(st.opt, st.engine)
	m.SetGradHook(st.dopt.GradHook())
	st.engine.Start()
	horovod.BroadcastParameters(c, m.Params(), 0)
	horovod.ScaleLR(st.opt, world)
	return st, nil
}

// step runs one training step: the batch is drawn inside it, so data
// loading counts toward the step time. With rows non-nil the time of
// each public call is added to its row.
func (r *rank) step(rows *[numPhases]time.Duration) float64 {
	var t [numPhases + 1]time.Time
	mark := func(p phase) {
		if rows != nil {
			t[p] = time.Now()
		}
	}
	mark(phData)
	b := r.loader.Next()
	mark(phZeroGrad)
	r.opt.ZeroGrad()
	mark(phForward)
	pred := r.model.Forward(b.LR)
	mark(phLoss)
	l, g := nn.L1Loss{}.ForwardBuf(r.gradBuf, pred, b.HR)
	r.gradBuf = g
	mark(phBackward)
	r.model.Backward(g)
	mark(phDrain)
	r.dopt.Drain()
	mark(phOptim)
	r.opt.Step()
	if rows != nil {
		t[numPhases] = time.Now()
		for p := phase(0); p < numPhases; p++ {
			rows[p] += t[p+1].Sub(t[p])
		}
	}
	return l
}

func (r *rank) close() { r.engine.Shutdown() }

// arStats is the benchmark's allreduce wrapper: it runs the same exact
// ring the engine runs by default and records calls, bytes and busy time
// per hvprof message-size class.
type arStats struct {
	mu      sync.Mutex
	calls   int64
	bytes   int64
	busy    time.Duration
	byClass [3]time.Duration
}

// hvprof's Table I size classes, collapsed to three.
var arClassNames = [3]string{"mpi.allreduce_ms.lt128k", "mpi.allreduce_ms.128k-16m", "mpi.allreduce_ms.ge16m"}

func arClass(bytes int64) int {
	switch {
	case bytes < 128<<10:
		return 0
	case bytes < 16<<20:
		return 1
	default:
		return 2
	}
}

func (a *arStats) fn(c *mpi.Comm, buf []float32) error {
	t0 := time.Now()
	c.AllreduceSum(buf, mpi.AlgoRing)
	d := time.Since(t0)
	n := int64(len(buf)) * 4
	a.mu.Lock()
	a.calls++
	a.bytes += n
	a.busy += d
	a.byClass[arClass(n)] += d
	a.mu.Unlock()
	return nil
}

func (a *arStats) snapshot() arStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return arStats{calls: a.calls, bytes: a.bytes, busy: a.busy, byClass: a.byClass}
}

// trainRun is what rank 0 measured in one world.
type trainRun struct {
	setup      time.Duration
	stepMs     []float64 // every timed step
	tracedMs   []float64 // traced steps only (trace runs alternate)
	plainMs    []float64 // untraced steps of a trace run
	rows       [numPhases]time.Duration
	imgPerSec  float64
	lossFinal  float64 // evalLoss after LossSteps steps
	finite     atomic.Bool
	allocs     float64
	ar0, ar1   arStats
	sent       int64
	timedSteps int
}

// trainWorld builds one world (setup), and when measure is set runs the
// loss prefix and then timed steps until the budget is spent.
func trainWorld(s trainSpec, o opts, measure bool, budget time.Duration) (*trainRun, error) {
	out := &trainRun{}
	out.finite.Store(true)
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	ars := make([]*arStats, s.World)
	body := func(c *mpi.Comm, began time.Time) {
		id := c.Rank()
		var arFn func(*mpi.Comm, []float32) error
		if o.trace {
			ars[id] = &arStats{}
			arFn = ars[id].fn
		}
		r, err := newRank(s, o.seed, c, arFn)
		if err != nil {
			fail(err)
			return
		}
		defer r.close()
		r.step(nil) // warm-up: grows every lazily sized buffer
		c.Barrier()
		if id == 0 {
			out.setup = time.Since(began)
		}
		if !measure {
			return
		}
		// The heap is read while every rank waits between two barriers:
		// a rank still stepping would add its live temporaries, one that
		// has returned would have dropped its model.
		if id == 0 {
			o.heap.Settle()
		}
		c.Barrier()
		// Steps 2..LossSteps finish the fixed-sample loss prefix; they are
		// timed like every later step.
		stepOnce := func(traced bool) float64 {
			var rows *[numPhases]time.Duration
			var local [numPhases]time.Duration
			if traced {
				rows = &local
			}
			t0 := time.Now()
			l := r.step(rows)
			d := time.Since(t0)
			if math.IsNaN(l) || math.IsInf(l, 0) {
				out.finite.Store(false)
			}
			if id == 0 {
				v := ms(d)
				out.stepMs = append(out.stepMs, v)
				if o.trace {
					if traced {
						out.tracedMs = append(out.tracedMs, v)
						for p := range local {
							out.rows[p] += local[p]
						}
					} else {
						out.plainMs = append(out.plainMs, v)
					}
				}
			}
			return l
		}
		for i := 2; i <= s.LossSteps; i++ {
			stepOnce(false)
		}
		if id == 0 {
			l, err := evalLoss(s, o.seed, r.model)
			if err != nil {
				fail(err)
			}
			out.lossFinal = l
		}
		// Rank 0 sizes the timed loop from the prefix's pace and tells
		// the other ranks, so every rank runs the same number of steps.
		n := []float32{0}
		if id == 0 {
			per := mean(out.stepMs)
			n[0] = float32(math.Max(100, math.Floor(float64(budget.Milliseconds())/per)))
			out.stepMs = out.stepMs[:0]
			out.plainMs = out.plainMs[:0]
		}
		c.Bcast(n, 0)
		steps := int(n[0])
		var m0, m1 runtime.MemStats
		var sent0 int64
		if id == 0 {
			out.ar0 = ars[0].snapshotOrZero()
			sent0 = c.SentBytes()
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			stepOnce(o.trace && i%2 == 1)
		}
		wall := time.Since(t0)
		c.Barrier() // every rank is done before the heap is read
		if id == 0 {
			runtime.ReadMemStats(&m1)
			o.heap.Settle()
			out.timedSteps = steps
			out.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(steps)
			out.imgPerSec = float64(steps*s.Batch*s.World) / wall.Seconds()
			out.ar1 = ars[0].snapshotOrZero()
			out.sent = c.SentBytes() - sent0
		}
		c.Barrier()
	}
	began := time.Now()
	if err := mpi.NewWorld(s.World).Run(func(c *mpi.Comm) { body(c, began) }); err != nil {
		return nil, err
	}
	return out, firstErr
}

func (a *arStats) snapshotOrZero() arStats {
	if a == nil {
		return arStats{}
	}
	return a.snapshot()
}

func runTrain(o opts, s trainSpec) (*outcome, error) {
	s.Setups = 5
	s.Windows = 10
	s.Data.Seed = o.seed
	s.Loop = "closed loop: each step draws its batch, runs forward, loss, backward, gradient drain and the optimizer"
	prev := tensor.SetMaxWorkers(s.TensorWorkers)
	defer tensor.SetMaxWorkers(prev)

	kernelBudget := time.Duration(0)
	if o.trace {
		kernelBudget = 3 * time.Second
	}
	budget := time.Duration(o.seconds*float64(time.Second)) - kernelBudget
	var setups []float64
	var run *trainRun
	for i := 0; i < s.Setups; i++ {
		r, err := trainWorld(s, o, i == s.Setups-1, budget)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		run = r
	}

	out := &outcome{config: s, report: map[string]any{}, layers: map[string]metric{}}
	steps := len(run.stepMs)
	out.attempted = steps + s.LossSteps
	lat := summarize(run.stepMs)
	// Each gated figure is the median over s.Windows stretches of the
	// timed steps of that stretch's figure; the whole-run figures are
	// reported beside them.
	imgs := float64(s.Batch * s.World)
	winImgPerSec := windows(run.stepMs, s.Windows, func(w []float64) float64 { return imgs * 1000 / mean(w) })
	winP50 := windows(run.stepMs, s.Windows, median)
	winP90 := windows(run.stepMs, s.Windows, p90)
	out.endToEnd = map[string]metric{
		"setup_s":    {median(setups), "s"},
		"img_per_s":  {median(winImgPerSec), "img/s"},
		"lat_p50_ms": {median(winP50), "ms"},
		"lat_p90_ms": {median(winP90), "ms"},
	}
	out.report["setup_s"] = map[string]any{"median": median(setups), "samples": setups}
	out.report["img_per_s"] = map[string]any{"median_of_windows": median(winImgPerSec), "per_window": winImgPerSec, "whole_run": run.imgPerSec}
	out.report["step_ms"] = map[string]any{"p50_per_window": winP50, "p90_per_window": winP90, "whole_run": lat}
	out.report["step_ms_p50"], out.report["step_ms_p90"] = median(winP50), median(winP90)
	runtime.GC()
	init, err := evalLoss(s, o.seed, models.NewEDSR(s.Model, tensor.NewRNG(o.seed)))
	if err != nil {
		return nil, err
	}
	out.report["loss_init"] = init
	out.report["loss_final"] = map[string]any{"value": run.lossFinal, "bits": fmt.Sprintf("%016x", math.Float64bits(run.lossFinal)),
		"samples": s.LossSteps * s.Batch * s.World, "eval_patches": evalPatches}

	// Output checks.
	out.check("loss_finite", run.finite.Load() && !math.IsNaN(run.lossFinal) && !math.IsInf(run.lossFinal, 0), "every step's loss and the evaluation loss are finite")
	out.check("loss_falls", run.lossFinal < init, "evaluation loss after %d steps %.6f vs at initialisation %.6f", s.LossSteps, run.lossFinal, init)
	out.check("timed_steps", steps >= 100, "%d timed steps (p90 needs 100)", steps)
	ref, err := trainerLoss(s, o.seed)
	if err != nil {
		return nil, err
	}
	out.check("loss_matches_trainer", math.Float64bits(ref) == math.Float64bits(run.lossFinal),
		"evaluation loss of the trainer package's model %v vs the benchmark loop's %v after %d steps", ref, run.lossFinal, s.LossSteps)
	out.checks = append(out.checks, repeatCheck(o, "loss_final", run.lossFinal, s.TensorWorkers))
	for _, c := range out.checks {
		if !c.OK {
			out.failed++
		}
	}

	l := out.layers
	l["train.allocs_per_step"] = metric{run.allocs, "count"}
	if o.trace {
		traced := float64(len(run.tracedMs))
		var sum float64
		for p, d := range run.rows {
			v := ms(d) / traced
			l[phaseNames[p]] = metric{v, "ms"}
			sum += v
		}
		stepMean := mean(run.tracedMs)
		l["train.step_ms"] = metric{stepMean, "ms"}
		l["train.unattributed_ms"] = metric{stepMean - sum, "ms"}
		l["trace.overhead_frac"] = metric{median(run.tracedMs)/median(run.plainMs) - 1, "ratio"}
		out.report["trace_overhead"] = map[string]any{
			"traced_step_ms": summarize(run.tracedMs), "untraced_step_ms": summarize(run.plainMs),
			"step_ms_p50_diff": median(run.tracedMs) - median(run.plainMs),
		}
		addCommLayers(l, run)
		for k, v := range kernelLayers(s) {
			l[k] = v
		}
		out.report["kernel_shapes"] = kernelShapes(s)
	}
	return out, nil
}

// addCommLayers turns rank 0's allreduce wrapper and wire counters into
// per-step rows.
func addCommLayers(l map[string]metric, run *trainRun) {
	steps := float64(run.timedSteps)
	traced := float64(len(run.tracedMs))
	calls := float64(run.ar1.calls - run.ar0.calls)
	bytes := float64(run.ar1.bytes - run.ar0.bytes)
	busy := run.ar1.busy - run.ar0.busy
	l["horovod.allreduce_calls_per_step"] = metric{calls / steps, "count"}
	l["horovod.allreduce_bytes_per_step"] = metric{bytes / steps, "bytes"}
	busyMs := ms(busy) / steps
	l["mpi.allreduce_ms_per_step"] = metric{busyMs, "ms"}
	l["mpi.allreduce_gbps"] = metric{bytes / busy.Seconds() / 1e9, "GB/s"}
	for i, n := range arClassNames {
		l[n] = metric{ms(run.ar1.byClass[i]-run.ar0.byClass[i]) / steps, "ms"}
	}
	l["mpi.sent_bytes_per_step"] = metric{float64(run.sent) / steps, "bytes"}
	drain := ms(run.rows[phDrain]) / traced
	l["horovod.hidden_frac"] = metric{1 - drain/busyMs, "ratio"}
}

// evalPatches is the size of the fixed evaluation batch loss_final is
// measured on.
const evalPatches = 16

// evalLoss is the L1 loss of m on a fixed batch drawn from the training
// images with its own seed: unlike one step's loss it does not depend on
// which patches that step drew.
func evalLoss(s trainSpec, seed uint64, m *models.EDSR) (float64, error) {
	ld, err := data.NewLoader(data.NewDataset(s.Data), data.LoaderConfig{
		BatchSize: evalPatches, PatchSize: s.Patch, Scale: s.Model.Scale, WorldSize: 1, Seed: seed + 999,
	})
	if err != nil {
		return 0, err
	}
	b := ld.Next()
	l, _ := nn.L1Loss{}.Forward(m.Forward(b.LR), b.HR)
	return l, nil
}

// trainerLoss trains with the trainer package itself for the loss prefix
// and evaluates its model: the loss must equal the benchmark loop's bit
// for bit.
func trainerLoss(s trainSpec, seed uint64) (float64, error) {
	cfg := s.trainerConfig(seed, s.LossSteps)
	m, _, err := trainer.TrainDistributed(cfg, s.World)
	if err != nil {
		return 0, err
	}
	return evalLoss(s, seed, m)
}
