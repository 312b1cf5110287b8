package trainer

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/mpi"
)

// goldenTrainBits pins the exact final parameter bits of every training
// entry point: one FNV-64a hash per case over the little-endian float32
// bits of every parameter in model order. Any change to the step body —
// the order of zero-grad, forward, loss, backward and update, the LR
// schedule, the loader stream, the restore of a checkpoint, or the
// gradient exchange — changes a hash. The zoo cases hash the float64
// bits of the returned final loss and PSNRs, which are functions of the
// final parameters, because TrainZoo returns results, not the model.
//
// The clean and resumed elastic runs share one hash: resuming at the same
// world size is bit-identical to never stopping. The distributed case
// runs fused; with two ranks every reduced element is a two-operand sum,
// which commutes, so fusion grouping cannot change its bits.
var goldenTrainBits = map[string]uint64{
	"single/lr-decay":               0x1e653f21eddb6603,
	"distributed/world=2":           0x4bc808ae7c6aa6dd,
	"elastic/world=3/clean":         0x600da132e1cab03e,
	"elastic/world=3/resume":        0x600da132e1cab03e,
	"elastic/world=3/crash-restart": 0xedd4cc23f3ce1d21,
	"resume/world=1/8+8":            0xb656411328b157a3,
	"zoo/srcnn":                     0x82afe4b71baa76dd,
	"zoo/fsrcnn":                    0x5f0887bc3515efe6,
}

// hashModel hashes the bits of every parameter of m.
func hashModel(m *models.EDSR) uint64 {
	h := fnv.New64a()
	var word [4]byte
	for _, p := range m.Params() {
		for _, x := range p.Value.Data() {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(x))
			h.Write(word[:])
		}
	}
	return h.Sum64()
}

// hashFloats hashes the bits of each value.
func hashFloats(xs ...float64) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
		h.Write(word[:])
	}
	return h.Sum64()
}

func TestTrainGoldenBits(t *testing.T) {
	cases := map[string]func(t *testing.T, dir string) uint64{
		"single/lr-decay": func(t *testing.T, _ string) uint64 {
			cfg := fastConfig()
			cfg.Steps = 12
			cfg.LRDecayEvery = 5
			m, _, err := TrainSingle(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return hashModel(m)
		},
		"distributed/world=2": func(t *testing.T, _ string) uint64 {
			cfg := fastConfig()
			cfg.Steps = 6
			m, _, err := TrainDistributed(cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			return hashModel(m)
		},
		"elastic/world=3/clean": func(t *testing.T, dir string) uint64 {
			m, _, err := TrainElastic(goldenElastic(dir, 20))
			if err != nil {
				t.Fatal(err)
			}
			return hashModel(m)
		},
		"elastic/world=3/resume": func(t *testing.T, dir string) uint64 {
			if _, _, err := TrainElastic(goldenElastic(dir, 10)); err != nil {
				t.Fatal(err)
			}
			m, st, err := TrainElastic(goldenElastic(dir, 20))
			if err != nil {
				t.Fatal(err)
			}
			if st.Attempts[0].StartStep != 10 {
				t.Fatalf("resumed at step %d, want 10", st.Attempts[0].StartStep)
			}
			return hashModel(m)
		},
		"elastic/world=3/crash-restart": func(t *testing.T, dir string) uint64 {
			cfg := goldenElastic(dir, 20)
			cfg.CheckpointEvery = 5
			cfg.RecvTimeout = 5 * time.Second
			cfg.Fault = mpi.FaultPlan{CrashRank: 1, CrashStep: 12, DropRank: -1, DelayRank: -1}
			cfg.MaxRestarts = 1
			m, st, err := TrainElastic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Restarts != 1 || st.Attempts[1].StartStep != 10 || st.Attempts[1].WorldSize != 2 {
				t.Fatalf("restart stats %+v", st)
			}
			return hashModel(m)
		},
		"resume/world=1/8+8": func(t *testing.T, dir string) uint64 {
			cfg := ElasticConfig{Train: fastConfig(), WorldSize: 1, CheckpointPath: filepath.Join(dir, "state.gob")}
			cfg.Train.Steps = 8
			if _, _, err := TrainElastic(cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Train.Steps = 16
			m, st, err := TrainElastic(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Attempts[0].StartStep != 8 {
				t.Fatalf("resumed at step %d, want 8", st.Attempts[0].StartStep)
			}
			return hashModel(m)
		},
		"zoo/srcnn": func(t *testing.T, _ string) uint64 {
			res, err := TrainZoo(ZooConfig{Arch: ArchSRCNN, Scale: 2, Train: zooTrain()}, 2)
			if err != nil {
				t.Fatal(err)
			}
			return hashFloats(res.FinalLoss, res.PSNR, res.PSNRBicubic)
		},
		"zoo/fsrcnn": func(t *testing.T, _ string) uint64 {
			res, err := TrainZoo(ZooConfig{Arch: ArchFSRCNN, Scale: 2, Blocks: 2, Feats: 16, Train: zooTrain()}, 2)
			if err != nil {
				t.Fatal(err)
			}
			return hashFloats(res.FinalLoss, res.PSNR, res.PSNRBicubic)
		},
	}
	for name, want := range goldenTrainBits {
		run := cases[name]
		t.Run(name, func(t *testing.T) {
			if got := run(t, t.TempDir()); got != want {
				t.Errorf("%s: parameter bits hash %#x, want %#x", name, got, want)
			}
		})
	}
}

// goldenElastic is a 3-rank unfused elastic run with a checkpoint every
// 10 steps in dir.
func goldenElastic(dir string, steps int) ElasticConfig {
	return ElasticConfig{
		Train:                elasticTestConfig(steps),
		WorldSize:            3,
		CheckpointPath:       filepath.Join(dir, "golden.gob"),
		CheckpointEvery:      10,
		FusionThresholdBytes: -1,
	}
}
