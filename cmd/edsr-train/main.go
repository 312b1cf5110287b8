// Command edsr-train trains an EDSR super-resolution model for real on
// the CPU — single-process or data-parallel across in-process MPI ranks —
// on the synthetic DIV2K-like dataset, then evaluates PSNR against the
// bicubic baseline.
//
// Usage:
//
//	edsr-train [-ranks N] [-steps N] [-batch N] [-patch N] [-scale 2|3|4]
//	           [-blocks N] [-feats N] [-lr 1e-3] [-checkpoint path] [-eval N]
//
// Checkpointed runs write the full training state (parameters, Adam
// moments, loader streams) to -checkpoint after the last step and every
// -ckpt-every steps, and resume from it at any rank count; -steps is the
// total step count, so a resumed run trains the remainder:
//
//	edsr-train -steps 100 -checkpoint ck.gob
//	edsr-train -steps 200 -resume ck.gob
//
// Fault-tolerant multi-rank runs (elastic restart) add:
//
//	edsr-train -ranks 4 -checkpoint ck.gob -ckpt-every 10 \
//	           [-inject-fault rank@step] [-recv-timeout 2s]
//
// Observability (tracing and live metrics):
//
//	edsr-train -ranks 4 -trace out.json -trace-jsonl out.jsonl \
//	           -metrics-addr :9090
//
// -trace writes a Chrome trace_event timeline (open in Perfetto);
// -trace-jsonl the same spans as JSONL for hvprof-report -spans;
// -metrics-addr serves Prometheus /metrics plus /debug/pprof live.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/trainer"
)

// exportTrace writes one trace artifact via the given timeline encoder.
func exportTrace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseFaultSpec parses "rank@step" into a crash-injection plan.
func parseFaultSpec(s string) (mpi.FaultPlan, error) {
	plan := mpi.NoFaults()
	rankStr, stepStr, ok := strings.Cut(s, "@")
	if !ok {
		return plan, fmt.Errorf("bad -inject-fault %q: want rank@step", s)
	}
	rank, err1 := strconv.Atoi(rankStr)
	step, err2 := strconv.Atoi(stepStr)
	if err1 != nil || err2 != nil || rank < 0 || step < 0 {
		return plan, fmt.Errorf("bad -inject-fault %q: want rank@step", s)
	}
	plan.CrashRank, plan.CrashStep = rank, step
	return plan, nil
}

func main() {
	arch := flag.String("arch", "edsr", "architecture: edsr, srcnn, srresnet, or fsrcnn (non-edsr train single-process)")
	ranks := flag.Int("ranks", 1, "data-parallel worker count")
	steps := flag.Int("steps", 200, "training steps in total (a resumed run trains the remainder)")
	batch := flag.Int("batch", 4, "batch size per rank (paper: 4)")
	patch := flag.Int("patch", 12, "LR patch size in pixels")
	scale := flag.Int("scale", 2, "super-resolution factor (paper: 2)")
	blocks := flag.Int("blocks", 4, "EDSR residual blocks (paper: 32)")
	feats := flag.Int("feats", 16, "EDSR feature maps (paper config: 256)")
	lr := flag.Float64("lr", 2e-3, "base learning rate (scaled by ranks)")
	images := flag.Int("images", 64, "synthetic dataset size (DIV2K: 800)")
	size := flag.Int("size", 48, "synthetic HR image edge in pixels")
	evalN := flag.Int("eval", 4, "held-out images for PSNR evaluation")
	checkpoint := flag.String("checkpoint", "", "write the full training state here after the last step (resumable; read by sr-serve)")
	resume := flag.String("resume", "", "resume from (and keep checkpointing to) a training state written by -checkpoint")
	benchsets := flag.Bool("benchsets", false, "evaluate on the standard benchmark sets after training")
	logEvery := flag.Int("log", 20, "log every N steps")
	ckptEvery := flag.Int("ckpt-every", 0, "also write the training state to -checkpoint every N steps")
	injectFault := flag.String("inject-fault", "", "multi-rank: crash injection \"rank@step\" (fault-tolerance experiments)")
	recvTimeout := flag.Duration("recv-timeout", 0, "multi-rank: failure-detection deadline for receives (0 disables)")
	maxRestarts := flag.Int("max-restarts", 2, "multi-rank: elastic restarts allowed after rank failures")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline here at run end (open at https://ui.perfetto.dev)")
	traceJSONL := flag.String("trace-jsonl", "", "write the span timeline as JSONL (input for hvprof-report -spans)")
	metricsAddr := flag.String("metrics-addr", "", "serve live Prometheus /metrics and /debug/pprof on this address (e.g. :9090)")
	compress := flag.String("compress", "", "multi-rank gradient compression: none, fp16, topk, hier, or hier-fp16")
	topkRatio := flag.Int("topk-ratio", 0, "top-k compression ratio (0 = default 32)")
	gpusPerNode := flag.Int("gpus-per-node", 0, "ranks per simulated node for hierarchical allreduce (0 = flat)")
	flag.Parse()

	cfg := trainer.Config{
		Model: models.EDSRConfig{
			NumBlocks: *blocks, NumFeats: *feats, Scale: *scale,
			ResScale: 0.1, Colors: 3,
		},
		Data: data.SyntheticConfig{
			Images: *images, Height: *size, Width: *size, Channels: 3, Seed: 7,
		},
		Steps:       *steps,
		BatchSize:   *batch,
		PatchSize:   *patch,
		LR:          *lr,
		Seed:        1,
		LogEvery:    *logEvery,
		Log:         os.Stdout,
		Compression: *compress,
		TopKRatio:   *topkRatio,
		GPUsPerNode: *gpusPerNode,
	}
	if err := cfg.Model.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *tracePath != "" || *traceJSONL != "" {
		cfg.Trace = trace.NewSession(0)
	}
	if *metricsAddr != "" {
		reg := trace.NewMetrics()
		cfg.Metrics = trace.NewTrainMetrics(reg)
		srv, err := trace.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}
	// writeTrace exports the merged timeline after a traced run and
	// prints rank 0's backward/allreduce overlap verdict.
	writeTrace := func() {
		if cfg.Trace == nil {
			return
		}
		tl := cfg.Trace.Timeline()
		if *tracePath != "" {
			if err := exportTrace(*tracePath, tl.WriteChromeTrace); err != nil {
				fmt.Fprintln(os.Stderr, "trace export failed:", err)
				os.Exit(1)
			}
			fmt.Printf("trace: %d spans from %d rank(s) -> %s (open at https://ui.perfetto.dev)\n",
				tl.NumSpans(), len(tl.Ranks), *tracePath)
		}
		if *traceJSONL != "" {
			if err := exportTrace(*traceJSONL, tl.WriteJSONL); err != nil {
				fmt.Fprintln(os.Stderr, "trace export failed:", err)
				os.Exit(1)
			}
			fmt.Printf("spans: %s (analyze with hvprof-report -spans %s)\n", *traceJSONL, *traceJSONL)
		}
		fmt.Println(trace.FormatOverlap(tl.Overlap(0)))
	}

	a, err := trainer.ParseArch(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if a != trainer.ArchEDSR {
		// Baseline architectures run through the model zoo (single rank).
		res, err := trainer.TrainZoo(trainer.ZooConfig{
			Arch: a, Scale: *scale, Blocks: *blocks, Feats: *feats, Train: cfg,
		}, *evalN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "training failed:", err)
			os.Exit(1)
		}
		fmt.Printf("trained %s (%d params): final L1 %.5f\n", res.Arch, res.Params, res.FinalLoss)
		if *evalN > 0 {
			fmt.Printf("held-out PSNR: %s %.2f dB vs bicubic %.2f dB (Δ %+.2f dB)\n",
				res.Arch, res.PSNR, res.PSNRBicubic, res.PSNR-res.PSNRBicubic)
		}
		return
	}

	// Checkpointed, resumed and fault-injected runs go through the
	// elastic driver at any rank count; plain runs report full stats.
	ckptPath := *checkpoint
	if *resume != "" {
		ckptPath = *resume
	}
	if ckptPath == "" && *ckptEvery > 0 {
		fmt.Fprintln(os.Stderr, "-ckpt-every needs -checkpoint (or -resume) to name the state file")
		os.Exit(2)
	}
	fmt.Printf("Training EDSR (B=%d, F=%d, x%d) on %d rank(s), batch %d, %d steps\n",
		*blocks, *feats, *scale, *ranks, *batch, *steps)
	var model *models.EDSR
	if ckptPath != "" || *injectFault != "" || *recvTimeout > 0 {
		fault := mpi.NoFaults()
		if *injectFault != "" {
			fault, err = parseFaultSpec(*injectFault)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		if step, ws, err := trainer.LoadElasticState(ckptPath); err == nil {
			fmt.Printf("resuming from %s (step %d, saved by a %d-rank world)\n", ckptPath, step, ws)
		} else if *resume != "" {
			fmt.Fprintln(os.Stderr, "resume failed:", err)
			os.Exit(1)
		}
		var stats trainer.ElasticStats
		model, stats, err = trainer.TrainElastic(trainer.ElasticConfig{
			Train:           cfg,
			WorldSize:       *ranks,
			CheckpointPath:  ckptPath,
			CheckpointEvery: *ckptEvery,
			RecvTimeout:     *recvTimeout,
			Fault:           fault,
			MaxRestarts:     *maxRestarts,
		})
		for i, a := range stats.Attempts {
			status := "ok"
			if a.Err != "" {
				// errors.Join output is one line per failed rank; the first
				// line carries the root cause.
				status, _, _ = strings.Cut(a.Err, "\n")
			}
			fmt.Printf("attempt %d: world %d, steps %d..%d, avg loss %.5f — %s\n",
				i+1, a.WorldSize, a.StartStep, a.EndStep, a.AvgLoss, status)
		}
		writeTrace() // a trace of a failed run is still evidence
		if err != nil {
			fmt.Fprintln(os.Stderr, "training failed:", err)
			os.Exit(1)
		}
		if stats.Restarts > 0 {
			fmt.Printf("recovered from %d rank failure(s) via elastic restart\n", stats.Restarts)
		}
		if ckptPath != "" {
			fmt.Printf("training state saved to %s\n", ckptPath)
		}
	} else {
		var st trainer.Stats
		model, st, err = trainer.TrainDistributed(cfg, *ranks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "training failed:", err)
			os.Exit(1)
		}
		fmt.Printf("done: final L1 loss %.5f, avg %.5f, %.1f images/sec, %.1fs wall\n",
			st.FinalLoss, st.AvgLoss, st.ImagesPerSec, st.WallSeconds)
		if st.DrainMsPerStep > 0 {
			fmt.Printf("communication wait: %.2f ms/step exposed in Drain\n", st.DrainMsPerStep)
		}
		writeTrace()
	}

	if *evalN > 0 {
		pm, pb := trainer.Evaluate(model, cfg, *evalN)
		fmt.Printf("held-out PSNR: EDSR %.2f dB vs bicubic %.2f dB (Δ %+.2f dB)\n", pm, pb, pm-pb)
	}
	if *benchsets {
		scores := trainer.EvaluateOnBenchmarks(model, nil, *scale, *size, 99)
		fmt.Print(trainer.FormatBenchmarkScores("edsr", scores))
	}
}
