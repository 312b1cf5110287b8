package serve

import (
	"path/filepath"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// serveConfig is a tiny trainable config for checkpoint round-trips.
func serveConfig() trainer.Config {
	cfg := trainer.DefaultConfig()
	cfg.Model = models.EDSRConfig{NumBlocks: 1, NumFeats: 6, Scale: 2, ResScale: 0.1, Colors: 3}
	cfg.Data.Images = 8
	cfg.Data.Height, cfg.Data.Width = 24, 24
	cfg.Steps = 2
	cfg.BatchSize = 2
	cfg.PatchSize = 8
	return cfg
}

// checkMasterMatches asserts a loaded master model forwards identically
// to the reference model.
func checkMasterMatches(t *testing.T, got, ref *models.EDSR) {
	t.Helper()
	rng := tensor.NewRNG(61)
	x := randImage(rng, 3, 9, 9)
	want := ref.Forward(x).Clone()
	if d := maxAbsDiff(want, got.Forward(x)); d != 0 {
		t.Fatalf("loaded model forward differs from checkpointed model by %g", d)
	}
}

// TestLoadEDSRCheckpointWeightsFile round-trips the weights-only
// trainer.SaveCheckpoint format through LoadEDSRMaster.
func TestLoadEDSRCheckpointWeightsFile(t *testing.T) {
	cfg := serveConfig()
	master := models.NewEDSR(cfg.Model, tensor.NewRNG(cfg.Seed))
	path := filepath.Join(t.TempDir(), "weights.ckpt")
	if err := trainer.SaveCheckpoint(path, master, cfg); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	m, gotCfg, err := LoadEDSRMaster(path)
	if err != nil {
		t.Fatalf("LoadEDSRMaster: %v", err)
	}
	if gotCfg != cfg.Model {
		t.Fatalf("config %+v, want %+v", gotCfg, cfg.Model)
	}
	checkMasterMatches(t, m, master)
}

// TestLoadEDSRCheckpointTrainingStateFile loads the full training-state
// file a checkpointed single-rank trainer.TrainElastic run writes — the
// server must accept checkpoints straight out of a crash-safe training
// run, optimizer state and all.
func TestLoadEDSRCheckpointTrainingStateFile(t *testing.T) {
	cfg := serveConfig()
	path := filepath.Join(t.TempDir(), "state.ckpt")
	trained, _, err := trainer.TrainElastic(trainer.ElasticConfig{Train: cfg, WorldSize: 1, CheckpointPath: path})
	if err != nil {
		t.Fatalf("TrainElastic: %v", err)
	}
	m, _, err := LoadEDSRMaster(path)
	if err != nil {
		t.Fatalf("LoadEDSRMaster on a training-state file: %v", err)
	}
	checkMasterMatches(t, m, trained)
}

// TestLoadEDSRCheckpointMissing checks the error path.
func TestLoadEDSRCheckpointMissing(t *testing.T) {
	if _, _, err := LoadEDSRMaster(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("expected an error for a missing checkpoint")
	}
}

// TestBuiltinFactories checks every built-in name yields a working
// factory and unknown names fail.
func TestBuiltinFactories(t *testing.T) {
	rng := tensor.NewRNG(67)
	for _, name := range []string{"bicubic", "edsr-tiny", "srcnn"} {
		f, err := BuiltinFactory(name)
		if err != nil {
			t.Fatalf("BuiltinFactory(%q): %v", name, err)
		}
		m := f()
		x := randImage(rng, m.Colors(), 7, 7)
		y := m.Forward(x)
		if y.Dim(2) != 7*m.Scale() || y.Dim(3) != 7*m.Scale() {
			t.Fatalf("%s: output %v for 7x7 input, scale %d", name, y.Shape(), m.Scale())
		}
	}
	if _, err := BuiltinFactory("alexnet"); err == nil {
		t.Fatal("expected an error for an unknown built-in")
	}
}
