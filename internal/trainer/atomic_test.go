package trainer

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAtomicWritePartialFailureKeepsOldFile is the crash-safety gate:
// a writer that emits some bytes and then fails (a crash mid-save, a
// full disk) must leave the previous checkpoint bytes untouched and not
// litter temp files.
func TestAtomicWritePartialFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	good := []byte("the only good checkpoint")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk died mid-write")
	err := atomicWrite(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write error not propagated: %v", err)
	}
	got, err2 := os.ReadFile(path)
	if err2 != nil {
		t.Fatal(err2)
	}
	if string(got) != string(good) {
		t.Fatalf("old checkpoint destroyed: %q", got)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// TestAtomicWriteSuccessReplaces checks the happy path actually lands.
func TestAtomicWriteSuccessReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new state"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new state" {
		t.Fatalf("got %q", got)
	}
}

// TestAtomicWriteGobEncodeErrorPropagates: an unencodable value (gob
// cannot encode functions) must error out and keep the old file.
func TestAtomicWriteGobEncodeErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.gob")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteGob(path, func() {}); err == nil {
		t.Fatal("expected encode error")
	}
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("old checkpoint destroyed: %q", got)
	}
}

// TestElasticSaveFailureKeepsResumableCheckpoint drives the property
// end-to-end through TrainElastic, at one rank and at two: a good
// checkpoint, then a run whose save fails — which must end on every rank,
// not leave rank 1 blocked in the next step — then a resume from the
// surviving file.
func TestElasticSaveFailureKeepsResumableCheckpoint(t *testing.T) {
	for _, ws := range []int{1, 2} {
		t.Run(fmt.Sprintf("world=%d", ws), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.gob")
			cfg := DefaultConfig()
			cfg.Steps = 2
			cfg.Model.NumBlocks, cfg.Model.NumFeats = 1, 4
			run := ElasticConfig{Train: cfg, WorldSize: ws, CheckpointPath: path, CheckpointEvery: 1, FusionThresholdBytes: -1}
			if _, _, err := TrainElastic(run); err != nil {
				t.Fatal(err)
			}
			goodBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			// Make the directory unwritable so the temp file cannot be
			// created; the failed save must not touch the existing
			// checkpoint.
			more := run
			more.Train.Steps = 4
			if err := os.Chmod(dir, 0o555); err != nil {
				t.Fatal(err)
			}
			defer os.Chmod(dir, 0o755)
			bad := more
			if os.Geteuid() == 0 {
				// Root ignores directory permissions; fall back to a path
				// whose parent directory does not exist at all.
				bad.CheckpointPath = filepath.Join(dir, "no-such-subdir", "state.gob")
			}
			if _, _, err := TrainElastic(bad); err == nil {
				t.Fatal("expected save error")
			}
			os.Chmod(dir, 0o755)

			afterBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(afterBytes) != string(goodBytes) {
				t.Fatal("failed save modified the previous checkpoint")
			}
			_, stats, err := TrainElastic(more)
			if err != nil {
				t.Fatalf("surviving checkpoint not resumable: %v", err)
			}
			if at := stats.Attempts[0]; at.StartStep != 2 || at.EndStep != 4 {
				t.Fatalf("resumed steps %d..%d, want 2..4", at.StartStep, at.EndStep)
			}
		})
	}
}

// TestSaveCheckpointAtomicReportsRenameTarget sanity-checks the model
// checkpoint path too: saving into a missing directory errors with a
// useful message and never creates a partial file elsewhere.
func TestSaveCheckpointAtomicMissingDir(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model.NumBlocks, cfg.Model.NumFeats = 1, 4
	model, _, err := TrainSingle(withSteps(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "missing", "model.gob")
	err = SaveCheckpoint(bad, model, cfg)
	if err == nil {
		t.Fatal("expected error for missing directory")
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func withSteps(cfg Config, n int) Config {
	cfg.Steps = n
	return cfg
}
