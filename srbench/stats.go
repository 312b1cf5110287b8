package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windows splits xs, samples in the order they were taken, into k
// contiguous windows of (nearly) equal size and returns f of each. The
// gated figures are medians over windows: the host this runs on has
// slow spells that last seconds, and one that covers fewer than half
// the windows of a run does not move the median, while a change to the
// program moves every window alike.
func windows(xs []float64, k int, f func([]float64) float64) []float64 {
	k = max(1, min(k, len(xs)))
	per := make([]float64, k)
	for i := range per {
		per[i] = f(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	return per
}

func p90(xs []float64) float64 { return quantile(xs, 0.9) }

// dist is a timing distribution as the report prints it: the median,
// the p90 and the sample count behind them.
type dist struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	N   int     `json:"n"`
}

func summarize(xs []float64) dist {
	return dist{P50: median(xs), P90: quantile(xs, 0.9), N: len(xs)}
}

// heapPeak tracks the peak live Go heap: at chosen points — the end of
// set-up and the end of the measurement — it runs a full collection and
// reads what the collector found reachable. A reading between
// collections would instead depend on when the collector last ran.
type heapPeak struct {
	mu     sync.Mutex
	sample []metrics.Sample
	peak   uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// Settle collects and records the live heap.
func (h *heapPeak) Settle() {
	runtime.GC()
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample)
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

// MiB returns the peak recorded so far.
func (h *heapPeak) MiB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
