package trainer

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// elasticTestConfig keeps the distributed fault tests laptop-fast.
func elasticTestConfig(steps int) Config {
	cfg := DefaultConfig()
	cfg.Model.NumBlocks, cfg.Model.NumFeats = 1, 4
	cfg.Data.Images = 16
	cfg.Steps = steps
	cfg.BatchSize = 2
	cfg.PatchSize = 8
	return cfg
}

func paramBits(t *testing.T, m *models.EDSR) [][]uint32 {
	t.Helper()
	var out [][]uint32
	for _, p := range m.Params() {
		d := p.Value.Data()
		bits := make([]uint32, len(d))
		for i, v := range d {
			bits[i] = math.Float32bits(v)
		}
		out = append(out, bits)
	}
	return out
}

func sameBits(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestElasticResumeBitIdentical is the resume-equivalence gate: a run
// checkpointed at step 10 and resumed to step 20 must produce parameters
// bit-identical to an uninterrupted 20-step run, at one rank (the
// single-process resume) and at two. Fusion is disabled so both runs
// reduce tensors in a fixed order (fusion grouping depends on submission
// timing and changes fp summation order).
func TestElasticResumeBitIdentical(t *testing.T) {
	for _, ws := range []int{1, 2} {
		t.Run(fmt.Sprintf("world=%d", ws), func(t *testing.T) {
			dir := t.TempDir()
			ref := ElasticConfig{
				Train:                elasticTestConfig(20),
				WorldSize:            ws,
				CheckpointPath:       filepath.Join(dir, "ref.gob"),
				CheckpointEvery:      10,
				FusionThresholdBytes: -1,
			}
			refModel, refStats, err := TrainElastic(ref)
			if err != nil {
				t.Fatal(err)
			}
			if refStats.Restarts != 0 || len(refStats.Attempts) != 1 {
				t.Fatalf("reference run restarted: %+v", refStats)
			}

			// Interrupted run: train to step 10, stop, then resume to 20
			// from the checkpoint file alone.
			half := ref
			half.Train.Steps = 10
			half.CheckpointPath = filepath.Join(dir, "half.gob")
			if _, _, err := TrainElastic(half); err != nil {
				t.Fatal(err)
			}
			step, gotWS, err := LoadElasticState(half.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if step != 10 || gotWS != ws {
				t.Fatalf("checkpoint at step %d world %d, want 10/%d", step, gotWS, ws)
			}
			resumed := half
			resumed.Train.Steps = 20
			resModel, resStats, err := TrainElastic(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if at := resStats.Attempts[0]; at.StartStep != 10 || at.EndStep != 20 {
				t.Fatalf("resume covered steps %d..%d, want 10..20", at.StartStep, at.EndStep)
			}
			if !sameBits(paramBits(t, refModel), paramBits(t, resModel)) {
				t.Fatal("resumed run is not bit-identical to the uninterrupted run")
			}
		})
	}
}

// TestLoadElasticStateMissingFile: reading a checkpoint that does not
// exist is an error (TrainElastic itself treats it as a fresh start).
func TestLoadElasticStateMissingFile(t *testing.T) {
	if _, _, err := LoadElasticState(filepath.Join(t.TempDir(), "none.gob")); err == nil {
		t.Fatal("expected error")
	}
}

// TestElasticCrashRestartsAndLossDecreases is the tentpole acceptance
// test: a 3-rank run where rank 1 is crashed at step 12 must neither
// hang nor panic — the survivors restart from the last checkpoint as a
// 2-rank world, re-shard the data, and the loss keeps decreasing.
func TestElasticCrashRestartsAndLossDecreases(t *testing.T) {
	dir := t.TempDir()
	cfg := ElasticConfig{
		Train:                elasticTestConfig(30),
		WorldSize:            3,
		CheckpointPath:       filepath.Join(dir, "elastic.gob"),
		CheckpointEvery:      5,
		RecvTimeout:          5 * time.Second,
		Fault:                mpi.FaultPlan{CrashRank: 1, CrashStep: 12, DropRank: -1, DelayRank: -1},
		MaxRestarts:          2,
		FusionThresholdBytes: -1,
	}
	model, stats, err := TrainElastic(cfg)
	if err != nil {
		t.Fatalf("elastic run did not recover: %v", err)
	}
	if model == nil {
		t.Fatal("no model returned")
	}
	if stats.Restarts != 1 || len(stats.Attempts) != 2 {
		t.Fatalf("want exactly one restart, got %+v", stats)
	}
	first, second := stats.Attempts[0], stats.Attempts[1]
	if first.WorldSize != 3 || second.WorldSize != 2 {
		t.Fatalf("world sizes %d -> %d, want 3 -> 2", first.WorldSize, second.WorldSize)
	}
	if first.Err == "" {
		t.Fatal("first attempt should report the injected fault")
	}
	// The crash hit at step 12, after the step-10 checkpoint.
	if second.StartStep != 10 {
		t.Fatalf("restarted from step %d, want 10", second.StartStep)
	}
	if second.EndStep != 30 {
		t.Fatalf("restart ended at step %d, want 30", second.EndStep)
	}
	// Convergence continues across the restart: the survivors' average
	// loss (steps 10..30) must undercut the first attempt's (steps 0..12,
	// which includes the untrained-model start).
	if !(second.AvgLoss < first.AvgLoss) {
		t.Fatalf("loss did not keep decreasing: %.5f -> %.5f", first.AvgLoss, second.AvgLoss)
	}
	if second.FinalLoss >= first.AvgLoss {
		t.Fatalf("final loss %.5f not below first attempt's average %.5f", second.FinalLoss, first.AvgLoss)
	}
}

// TestElasticShrunkResumeDeterministic: resuming one checkpoint into a
// smaller world twice must give bit-identical parameters — the re-shard
// draws fresh batches, but deterministically.
func TestElasticShrunkResumeDeterministic(t *testing.T) {
	dir := t.TempDir()
	seedCfg := ElasticConfig{
		Train:                elasticTestConfig(10),
		WorldSize:            3,
		CheckpointPath:       filepath.Join(dir, "seed.gob"),
		CheckpointEvery:      10,
		FusionThresholdBytes: -1,
	}
	if _, _, err := TrainElastic(seedCfg); err != nil {
		t.Fatal(err)
	}
	ck, err := os.ReadFile(seedCfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}

	var bits [][][]uint32
	for _, name := range []string{"a.gob", "b.gob"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, ck, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := seedCfg
		cfg.WorldSize = 2 // one rank gone
		cfg.CheckpointPath = path
		cfg.Train.Steps = 16
		model, stats, err := TrainElastic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Attempts[0].StartStep != 10 || stats.Attempts[0].WorldSize != 2 {
			t.Fatalf("shrunk resume stats: %+v", stats.Attempts[0])
		}
		bits = append(bits, paramBits(t, model))
	}
	if !sameBits(bits[0], bits[1]) {
		t.Fatal("two resumes of the same checkpoint diverged")
	}
}

// TestElasticSetsImagesPerSecond: an elastic run reports its running
// throughput on the live img/s gauge, as TrainDistributed does.
func TestElasticSetsImagesPerSecond(t *testing.T) {
	tm := trace.NewTrainMetrics(trace.NewMetrics())
	cfg := elasticTestConfig(4)
	cfg.Metrics = tm
	if _, _, err := TrainElastic(ElasticConfig{Train: cfg, WorldSize: 2, FusionThresholdBytes: -1}); err != nil {
		t.Fatal(err)
	}
	if got := tm.ImagesPerSec.Value(); !(got > 0) {
		t.Fatalf("edsr_images_per_second = %g after an elastic run, want > 0", got)
	}
	if got := tm.Steps.Value(); got != 4 {
		t.Fatalf("edsr_steps_total = %d, want 4", got)
	}
}
