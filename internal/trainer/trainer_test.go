package trainer

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// fastConfig is a very small run for unit tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Model = models.EDSRConfig{NumBlocks: 1, NumFeats: 6, Scale: 2, ResScale: 0.1, Colors: 3}
	cfg.Data.Images = 8
	cfg.Data.Height, cfg.Data.Width = 24, 24
	cfg.Steps = 10
	cfg.BatchSize = 2
	cfg.PatchSize = 8
	return cfg
}

func TestTrainSingleReducesLoss(t *testing.T) {
	cfg := fastConfig()
	cfg.Steps = 40
	_, st, err := TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalLoss >= st.AvgLoss*1.2 {
		t.Fatalf("loss not trending down: final %g avg %g", st.FinalLoss, st.AvgLoss)
	}
	if st.ImagesPerSec <= 0 || st.Steps != 40 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTrainValidatesConfig(t *testing.T) {
	cfg := fastConfig()
	cfg.Steps = 0
	if _, _, err := TrainSingle(cfg); err == nil {
		t.Fatal("expected error for zero steps")
	}
	cfg = fastConfig()
	cfg.BatchSize = 0
	if _, _, err := TrainSingle(cfg); err == nil {
		t.Fatal("expected error for zero batch size")
	}
	cfg = fastConfig()
	cfg.PatchSize = 1000
	if _, _, err := TrainSingle(cfg); err == nil {
		t.Fatal("expected error for oversized patch")
	}
	if _, _, err := TrainDistributed(fastConfig(), 0); err == nil {
		t.Fatal("expected error for world size 0")
	}
}

func TestTrainLogs(t *testing.T) {
	cfg := fastConfig()
	var buf bytes.Buffer
	cfg.Log = &buf
	cfg.LogEvery = 5
	if _, _, err := TrainSingle(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "loss") {
		t.Fatalf("no progress lines: %q", buf.String())
	}
}

// TestLRSchedule: the loop halves the LR every LRDecayEvery steps, so
// steps 11 and 12 of a decay-every-5 run train at a quarter of the base.
func TestLRSchedule(t *testing.T) {
	cfg := fastConfig()
	cfg.LRDecayEvery = 5
	cfg.Steps = 12
	var buf bytes.Buffer
	cfg.Log, cfg.LogEvery = &buf, 1
	if _, _, err := TrainSingle(cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := fmt.Sprintf("lr %.2e", cfg.LR/4); !strings.Contains(lines[len(lines)-1], want) {
		t.Fatalf("last step logged %q, want %q", lines[len(lines)-1], want)
	}
}

// TestSessionWithLRDecay: the resumable single-rank session (TrainElastic
// at world 1 with a checkpoint) applies the same schedule; after 7 steps
// with decay-every-3 the LR is base/4.
func TestSessionWithLRDecay(t *testing.T) {
	cfg := fastConfig()
	cfg.LRDecayEvery = 3
	cfg.Steps = 7
	var buf bytes.Buffer
	cfg.Log, cfg.LogEvery = &buf, 1
	_, _, err := TrainElastic(ElasticConfig{
		Train:          cfg,
		WorldSize:      1,
		CheckpointPath: filepath.Join(t.TempDir(), "state.gob"),
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := fmt.Sprintf("lr %.2e", cfg.LR/4); !strings.Contains(lines[len(lines)-1], want) {
		t.Fatalf("last step logged %q, want %q", lines[len(lines)-1], want)
	}
}

// TestDistributedMatchesSingleThroughput verifies the distributed path
// runs and all ranks converge together; numerical equivalence to a full
// batch is covered in the horovod package tests.
func TestTrainDistributedRuns(t *testing.T) {
	cfg := fastConfig()
	cfg.Steps = 6
	m, st, err := TrainDistributed(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || st.Steps != 6 {
		t.Fatalf("stats %+v", st)
	}
	if math.IsNaN(st.FinalLoss) || st.FinalLoss <= 0 {
		t.Fatalf("bad loss %g", st.FinalLoss)
	}
}

func TestTrainDistributedWorldOneEqualsSingle(t *testing.T) {
	cfg := fastConfig()
	cfg.Steps = 4
	_, a, err := TrainDistributed(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.FinalLoss-b.FinalLoss) > 1e-9 {
		t.Fatalf("world=1 should equal single: %g vs %g", a.FinalLoss, b.FinalLoss)
	}
}

// TestTrainedModelBeatsBicubic is the end-to-end super-resolution check:
// after enough real training steps the tiny EDSR must beat the classical
// bicubic baseline in PSNR on held-out synthetic images.
func TestTrainedModelBeatsBicubic(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	cfg := DefaultConfig()
	cfg.Steps = 150
	cfg.LR = 2e-3
	model, _, err := TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, pb := Evaluate(model, cfg, 4)
	if pm <= pb {
		t.Fatalf("trained EDSR PSNR %.2f dB did not beat bicubic %.2f dB", pm, pb)
	}
	t.Logf("PSNR: EDSR %.2f dB vs bicubic %.2f dB", pm, pb)
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := fastConfig()
	model, _, err := TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.gob")
	if err := SaveCheckpoint(path, model, cfg); err != nil {
		t.Fatal(err)
	}
	restored, rcfg, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if rcfg.Model != cfg.Model {
		t.Fatalf("config mismatch: %+v vs %+v", rcfg.Model, cfg.Model)
	}
	orig, rest := model.Params(), restored.Params()
	for i := range orig {
		for j := range orig[i].Value.Data() {
			if orig[i].Value.Data()[j] != rest[i].Value.Data()[j] {
				t.Fatalf("param %s differs after round trip", orig[i].Name)
			}
		}
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	if _, _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error")
	}
}

// TestEvaluateDistributedMatchesSerial: sharded evaluation with a metric
// allreduce must agree with the single-process evaluation.
func TestEvaluateDistributedMatchesSerial(t *testing.T) {
	cfg := fastConfig()
	model, _, err := TrainSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serialM, serialB := Evaluate(model, cfg, 6)

	world := mpi.NewWorld(3)
	results := make([][2]float64, 3)
	world.Run(func(c *mpi.Comm) {
		// Each rank needs its own model replica with the same weights.
		replica := models.NewEDSR(cfg.Model, tensor.NewRNG(1))
		for i, p := range replica.Params() {
			p.Value.CopyFrom(model.Params()[i].Value)
		}
		m, b := EvaluateDistributed(c, replica, cfg, 6)
		results[c.Rank()] = [2]float64{m, b}
	})
	for r, got := range results {
		if math.Abs(got[0]-serialM) > 0.01 || math.Abs(got[1]-serialB) > 0.01 {
			t.Fatalf("rank %d: distributed (%g, %g) vs serial (%g, %g)",
				r, got[0], got[1], serialM, serialB)
		}
	}
	// All ranks must agree exactly.
	for r := 1; r < 3; r++ {
		if results[r] != results[0] {
			t.Fatalf("ranks disagree: %v vs %v", results[r], results[0])
		}
	}
}
