package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// withRingChunk runs fn with the pipelined ring's sub-chunk size set to cs
// and restores the previous size afterwards.
func withRingChunk(cs int, fn func()) {
	old := ringChunkElems
	ringChunkElems = cs
	defer func() { ringChunkElems = old }()
	fn()
}

// goldenAllreduceBits pins the exact output bits of every ring-based
// allreduce: one FNV-64a hash per (variant, world size) over every rank's
// result for every node width, length and sub-chunk size. Inputs are
// seeded non-integers spanning six decades, so any change in summation
// order, chunk boundaries or fp16 rounding points changes a hash — the
// small-integer tests elsewhere cannot see those, because fp32 and fp16
// represent their sums exactly. The flat variants ignore the topology and
// run at one GPU per node only.
var goldenAllreduceBits = map[string]uint64{
	"ring/world=1":            0x08852e93589efd47,
	"ring/world=2":            0xaa600b65002a7255,
	"ring/world=3":            0xc10d044992141e7a,
	"ring/world=5":            0xedf25152876856a3,
	"ring/world=8":            0x77d4f618bc04d845,
	"fp16/world=1":            0x43dc3fcfa049eb7d,
	"fp16/world=2":            0xc2dd81b56216f56d,
	"fp16/world=3":            0x83a2224436dad473,
	"fp16/world=5":            0x5e93ce3a547fb98a,
	"fp16/world=8":            0x5e71063d4f675d55,
	"node-aware/world=1":      0x3818a9bdd6b42615,
	"node-aware/world=2":      0x566f83c22c391fe5,
	"node-aware/world=3":      0x64d639a7f42212e3,
	"node-aware/world=5":      0x5e72277a34e4a808,
	"node-aware/world=8":      0x90e622a778b3f435,
	"node-aware-fp16/world=1": 0x0c39c3c4b298eaa5,
	"node-aware-fp16/world=2": 0xcad00808b2fed625,
	"node-aware-fp16/world=3": 0xf7ebe441cc548062,
	"node-aware-fp16/world=5": 0xcda9f270c769960f,
	"node-aware-fp16/world=8": 0x68ff776d0d413b25,
}

func TestAllreduceGoldenBits(t *testing.T) {
	variants := []struct {
		name     string
		nodeWide bool
		fn       func(c *Comm, buf []float32)
	}{
		{"ring", false, func(c *Comm, buf []float32) { c.AllreduceSum(buf, AlgoRing) }},
		{"fp16", false, func(c *Comm, buf []float32) { c.AllreduceSumFP16(buf) }},
		{"node-aware", true, func(c *Comm, buf []float32) { c.AllreduceSumNodeAware(buf, false) }},
		{"node-aware-fp16", true, func(c *Comm, buf []float32) { c.AllreduceSumNodeAware(buf, true) }},
	}
	for _, v := range variants {
		for _, size := range []int{1, 2, 3, 5, 8} {
			h := fnv.New64a()
			var word [4]byte
			gpns := []int{1}
			if v.nodeWide {
				gpns = []int{1, 2, 3, 4}
			}
			for _, gpn := range gpns {
				for _, n := range []int{0, 1, 13, 257, 3001} {
					for _, cs := range []int{1, 3, 64 << 10} {
						var results [][]float32
						withRingChunk(cs, func() {
							results = goldenRun(t, size, gpn, n, v.fn)
						})
						for _, buf := range results {
							for _, x := range buf {
								binary.LittleEndian.PutUint32(word[:], math.Float32bits(x))
								h.Write(word[:])
							}
						}
					}
				}
			}
			key := fmt.Sprintf("%s/world=%d", v.name, size)
			if got, want := h.Sum64(), goldenAllreduceBits[key]; got != want {
				t.Errorf("%s: output bits hash %#x, want %#x", key, got, want)
			}
		}
	}
}

// goldenRun runs fn on every rank of a fresh world with gpn GPUs per node
// and returns each rank's buffer. Rank r's input is a seeded stream of
// mixed-magnitude values, |x| in roughly [1e-3, 1e3).
func goldenRun(t *testing.T, size, gpn, n int, fn func(c *Comm, buf []float32)) [][]float32 {
	t.Helper()
	w := NewWorld(size)
	w.SetGPUsPerNode(gpn)
	results := make([][]float32, size)
	for r := range results {
		rng := rand.New(rand.NewSource(int64(1000*size + 10*n + r)))
		results[r] = make([]float32, n)
		for i := range results[r] {
			results[r][i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3)))
		}
	}
	if err := w.Run(func(c *Comm) { fn(c, results[c.Rank()]) }); err != nil {
		t.Fatal(err)
	}
	return results
}
