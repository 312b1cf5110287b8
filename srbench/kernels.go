package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/imageio"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// timeCalls runs f until at least minTime has passed (and at least
// three times) and returns the median duration of one call in ms.
func timeCalls(minTime time.Duration, f func()) float64 {
	f() // first call sizes buffers
	var per []float64
	began := time.Now()
	for len(per) < 3 || time.Since(began) < minTime {
		t0 := time.Now()
		f()
		per = append(per, ms(time.Since(t0)))
	}
	return median(per)
}

func filled(rng *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32() - 0.5
	}
	return s
}

// kernelLayers times the workload's dominant convolution (a body conv,
// feats→feats 3×3 over the LR patch batch) in isolation at the
// workload's tensor worker count, and the three GEMMs it lowers to on
// one core, next to this run's single-core GEMM peak. FLOPs are computed
// from the shapes, not counted.
func kernelLayers(s trainSpec) map[string]metric {
	const each = 250 * time.Millisecond
	rng := tensor.NewRNG(99)
	f, p, n := s.Model.NumFeats, s.Patch, s.Batch
	out := map[string]metric{}

	conv := nn.NewConv2d("probe", f, f, 3, 1, 1, true, rng)
	x := tensor.New(n, f, p, p)
	copy(x.Data(), filled(rng, x.Len()))
	g := tensor.New(n, f, p, p)
	copy(g.Data(), filled(rng, g.Len()))
	convFlops := 2 * float64(n*f*9*f*p*p)
	fwd := timeCalls(each, func() { conv.Forward(x) })
	bwd := timeCalls(each, func() {
		conv.Forward(x)
		conv.Backward(g)
	}) - fwd
	out["nn.conv_fwd_gflops"] = metric{convFlops / fwd / 1e6, "GFLOP/s"}
	out["nn.conv_bwd_gflops"] = metric{2 * convFlops / bwd / 1e6, "GFLOP/s"}

	ws := tensor.NewWorkspace()
	k, cols := 9*f, p*p
	w := filled(rng, f*k)
	col := filled(rng, k*cols)
	gr := filled(rng, f*cols)
	dst := make([]float32, max(f*cols, f*k, k*cols))
	gemmFlops := 2 * float64(f*k*cols)
	shapes := []struct {
		name string
		run  func()
	}{
		{"fwd", func() { ws.Gemm(dst[:f*cols], w, col, f, k, cols) }},
		{"bwd_w", func() { ws.GemmTransBAccum(dst[:f*k], gr, col, f, cols, k) }},
		{"bwd_x", func() { ws.GemmTransA(dst, w, gr, f, k, cols) }},
	}
	pm, pk, pn := 512, 512, 512
	pa, pb, pd := filled(rng, pm*pk), filled(rng, pk*pn), make([]float32, pm*pn)
	peak := 2 * float64(pm*pk*pn) / timeCalls(each, func() { ws.Gemm(pd, pa, pb, pm, pk, pn) }) / 1e6
	out["tensor.gemm_peak_gflops"] = metric{peak, "GFLOP/s"}
	for _, sh := range shapes {
		rate := gemmFlops / timeCalls(each, sh.run) / 1e6
		out["tensor.gemm_gflops."+sh.name] = metric{rate, "GFLOP/s"}
		out["tensor.gemm_frac."+sh.name] = metric{rate / peak, "ratio"}
	}
	return out
}

// kernelShapes describes what kernelLayers measured, for the report.
func kernelShapes(s trainSpec) map[string]string {
	f, p, n := s.Model.NumFeats, s.Patch, s.Batch
	k, cols := 9*f, p*p
	return map[string]string{
		"conv":  fmt.Sprintf("%d→%d 3x3 on (%d,%d,%d,%d)", f, f, n, f, p, p),
		"fwd":   fmt.Sprintf("dst %dx%d, inner %d", f, cols, k),
		"bwd_w": fmt.Sprintf("dst %dx%d, inner %d", f, k, cols),
		"bwd_x": fmt.Sprintf("dst %dx%d, inner %d", k, cols, f),
		"peak":  "dst 512x512, inner 512",
		"flops": "computed from the shapes: 2*M*N*K per GEMM, conv backward = 2x forward",
	}
}

// imageioLayers times ReadPNG on the request body and WritePNG on a
// response-sized tensor.
func imageioLayers(body []byte, resp *tensor.Tensor) (map[string]metric, error) {
	const each = 250 * time.Millisecond
	var err error
	dec := timeCalls(each, func() {
		if _, e := imageio.ReadPNG(bytes.NewReader(body)); e != nil {
			err = e
		}
	})
	var buf bytes.Buffer
	enc := timeCalls(each, func() {
		buf.Reset()
		if e := imageio.WritePNG(&buf, resp); e != nil {
			err = e
		}
	})
	return map[string]metric{"imageio.decode_ms": {dec, "ms"}, "imageio.encode_ms": {enc, "ms"}}, err
}
