package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"image/png"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/imageio"
	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/trace/request"
)

// serveSpec is the serving workload's full configuration. The server
// is configured as `sr-serve -models edsr-tiny -cache-mb 16` configures
// itself with every other flag at its default, and runs its kernels on
// one worker.
type serveSpec struct {
	Model         string              `json:"model"`
	Variant       string              `json:"variant"`
	TensorWorkers int                 `json:"tensor_workers"` // tensor.SetMaxWorkers
	Batch         serve.BatcherConfig `json:"batcher"`
	TileLR        int                 `json:"tile_lr"`
	CacheMiB      int                 `json:"cache_mib"`
	TraceRetain   int                 `json:"trace_retain"`
	TraceSample   float64             `json:"trace_sample"`
	TraceSlowPct  float64             `json:"trace_slow_pct"`
	ImageH        int                 `json:"image_h"`
	ImageW        int                 `json:"image_w"`
	Catalogue     int                 `json:"catalogue"`
	ZipfS         float64             `json:"zipf_s"`
	ZipfSeed      uint64              `json:"zipf_stream_seed"`
	Callers       int                 `json:"callers"`
	WarmRequests  int                 `json:"warm_requests"`
	LowRate       float64             `json:"low_rate_rps"`
	HighRate      float64             `json:"high_rate_rps"`
	Cycles        int                 `json:"cycles"`
	LowReqs       int                 `json:"low_requests_per_cycle"`
	HighReqs      int                 `json:"high_requests_per_cycle"`
	SatReqs       int                 `json:"closed_loop_requests_per_cycle"`
	SatRPS        float64             `json:"closed_loop_nominal_rps"`
	ProbeReqs     int                 `json:"min_requests_per_probe"`
	Ladder        []float64           `json:"ladder_rps"`
	LatLimitMs    float64             `json:"lat_p90_limit_ms"`
	LagFrac       float64             `json:"lag_p90_max_frac_of_gap"`
	CheckSample   int                 `json:"direct_forward_checks"`
	Setups        int                 `json:"setups"`
	Arrivals      string              `json:"arrivals"`
}

// serveZipfSpec is repeat traffic: Zipf draws from a fixed catalogue.
func serveZipfSpec(procs int) serveSpec {
	s := serveSpec{
		Model:   "edsr-tiny",
		Variant: serve.VariantFloat32,
		// One kernel worker: a parallel region waits for its slowest
		// worker, so on a shared host a neighbour on either core would
		// stall every forward.
		TensorWorkers: 1,
		Batch: serve.BatcherConfig{
			MaxBatch: 8, MaxDelay: 2 * time.Millisecond, Queue: 64, Workers: 1,
		},
		TileLR: 48,
		// A cache of sr-serve's default size (256 MiB) would hold the
		// whole catalogue, so the hit ratio would climb all through the
		// run and the low-rate p90 flip from the miss path to the hit
		// path. A cache of about 150 of the catalogue's images settles
		// at a steady hit ratio during the warm-up and evicts from then
		// on.
		CacheMiB:     16,
		TraceRetain:  256,
		TraceSample:  0.01,
		TraceSlowPct: 90,
		ImageH:       16,
		ImageW:       96,
		Catalogue:    1000,
		ZipfS:        1.1,
		// The popularity stream is the same for every seed, so each
		// phase meets the same hits and misses; the seed draws the
		// images.
		ZipfSeed:     1,
		Callers:      procs,
		WarmRequests: 600,
		SatRPS:       150,
		ProbeReqs:    100,
		Ladder:       ladder(25, math.Sqrt2, 10),
		LatLimitMs:   100,
		LagFrac:      0.5,
		CheckSample:  4,
		Setups:       5,
		Arrivals:     "open loop, evenly spaced, each request timed from when it was due; at most `callers` in flight",
	}
	s.LowRate, s.HighRate = s.Ladder[0], s.Ladder[2]
	return s
}

// The measurement is a run of cycles of about cycleSeconds each. A
// cycle spends these shares of its time at the low rate, at the high
// rate and in the closed loop, so a slow spell of the host meets every
// phase alike, and each gated figure is the median over the cycles.
const (
	cycleSeconds = 5.0
	lowShare     = 0.5
	highShare    = 0.2
	satShare     = 0.3
)

// schedule sizes the cycles to fill the measurement budget.
func (s *serveSpec) schedule(seconds float64) {
	s.Cycles = max(3, int(math.Round(seconds/cycleSeconds)))
	per := seconds / float64(s.Cycles)
	// Each rate gets at least ProbeReqs samples over the run, enough
	// for its p90, however short the budget.
	least := (s.ProbeReqs + s.Cycles - 1) / s.Cycles
	s.LowReqs = max(least, int(math.Ceil(s.LowRate*per*lowShare)))
	s.HighReqs = max(least, int(math.Ceil(s.HighRate*per*highShare)))
	// The closed loop is sized in requests, not timed, so every run
	// sends the same requests in every phase: the share of them that
	// miss the cache, which sets the closed-loop rate, is then the same
	// in every run.
	s.SatReqs = int(math.Ceil(s.SatRPS * per * satShare))
}

// ladder returns n rungs base·ratio^i.
func ladder(base, ratio float64, n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = math.Round(base*math.Pow(ratio, float64(i))*100) / 100
	}
	return r
}

func runServeZipf(o opts) (*outcome, error) { return runServe(o, serveZipfSpec(o.procs)) }

// fwdStats is the benchmark's serve.Model wrapper state: Forward calls,
// images (tiles) per call and time inside the model.
type fwdStats struct {
	calls, images atomic.Int64
	nanos         atomic.Int64
}

type countedModel struct {
	serve.Model
	st *fwdStats
}

func (m countedModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	y := m.Model.Forward(x)
	m.st.nanos.Add(int64(time.Since(t0)))
	m.st.calls.Add(1)
	m.st.images.Add(int64(x.Dim(0)))
	return y
}

// server is one running serving stack on a loopback listener.
type server struct {
	eng    *serve.Engine
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	tr     *http.Transport
	fwd    *fwdStats
	scale  int
	direct serve.Factory
}

func startServer(s serveSpec, traced bool) (*server, error) {
	reg := trace.NewMetrics()
	trace.RegisterBuildInfo(reg, trace.BuildVersion, "serve")
	trace.RegisterRuntimeMetrics(reg)
	met := serve.NewMetrics(reg)
	// The traced run attaches a span recorder, as `sr-serve -trace` does:
	// the batcher times queue waits (sr_queue_seconds) only with one.
	var rec *trace.Recorder
	if traced {
		rec = trace.NewSession(0).Recorder(0)
	}
	eng := serve.NewEngine(serve.EngineConfig{
		Batch:    s.Batch,
		TileSize: s.TileLR,
		Cache:    cache.Config{MaxBytes: int64(s.CacheMiB) << 20},
	}, met, rec)
	f, _, err := serve.BuiltinVariantFactory(s.Model, s.Variant)
	if err != nil {
		return nil, err
	}
	sv := &server{eng: eng, direct: f}
	registered := f
	if traced {
		sv.fwd = &fwdStats{}
		registered = func() serve.Model { return countedModel{f(), sv.fwd} }
	}
	if err := eng.Register(s.Model, registered); err != nil {
		return nil, err
	}
	sv.scale = eng.Models()[0].Scale
	sv.srv = serve.NewServer(eng, reg, met, serve.DefaultMaxBodyBytes)
	sample := s.TraceSample
	if traced {
		sample = 1 // keep every request trace: the attribution rows come from them
	}
	sv.srv.SetTraceStore(request.NewStore(request.Config{
		Capacity: s.TraceRetain, SampleRate: sample, SlowPct: s.TraceSlowPct,
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Shutdown()
		return nil, err
	}
	sv.url = "http://" + ln.Addr().String()
	sv.hs = &http.Server{Handler: sv.srv}
	sv.served = make(chan error, 1)
	go func() { sv.served <- sv.hs.Serve(ln) }()
	sv.tr = &http.Transport{MaxIdleConnsPerHost: s.Callers, MaxConnsPerHost: s.Callers}
	sv.client = &http.Client{Transport: sv.tr}
	return sv, nil
}

// close stops the listener, waits for in-flight handlers and the serve
// goroutine, then drains the batchers.
func (sv *server) close() error {
	sv.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	if serr := <-sv.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sv.eng.Shutdown()
	return err
}

// post sends one upscale request and returns the status and body.
func (sv *server) post(body []byte) (int, []byte, error) {
	resp, err := sv.client.Post(sv.url+"/v1/upscale", "image/png", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads the named counters (and histogram _sum/_count series)
// from /metrics.
func (sv *server) scrape() (map[string]float64, error) {
	resp, err := sv.client.Get(sv.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		val, _, _ = strings.Cut(val, " ")
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// traffic is the run's request stream: request i sends bodies[pick[i]].
type traffic struct {
	bodies [][]byte
	pick   []int
	next   int
}

// take returns the stream positions of the next n requests.
func (t *traffic) take(n int) []int {
	r := make([]int, min(n, len(t.pick)-t.next))
	for i := range r {
		r[i] = t.next + i
	}
	t.next += len(r)
	return r
}

// streamLen bounds how many requests one run can send: every phase
// plus two probes at the top rung's size.
func (s serveSpec) streamLen() int {
	top := s.Ladder[len(s.Ladder)-1]
	return s.WarmRequests + s.Cycles*(s.LowReqs+s.HighReqs+s.SatReqs) + 2*s.Callers + 2*probeSize(s, top)
}

// probeSize is the request count of one ladder probe: at least
// ProbeReqs, and at least 1.5 s of traffic.
func probeSize(s serveSpec, rate float64) int {
	return max(s.ProbeReqs, int(math.Ceil(1.5*rate)))
}

// makeTraffic generates the catalogue from the seed: distinct windows
// cut from two procedural DIV2K-like scenes, PNG-encoded once, the way a
// client would send them.
func makeTraffic(s serveSpec, seed uint64) (*traffic, error) {
	t := &traffic{pick: data.NewZipfSampler(s.ZipfSeed, s.ZipfS, s.Catalogue).Sequence(s.streamLen())}
	const sceneH, sceneW = 128, 256
	ds := data.NewDataset(data.SyntheticConfig{Images: 2, Height: sceneH, Width: sceneW, Channels: 3, Seed: seed})
	scenes := []*tensor.Tensor{ds.HR(0), ds.HR(1)}
	rng := tensor.NewRNG(seed)
	enc := png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &encoderPool{}}
	used := map[[3]int]bool{}
	seen := map[[32]byte]bool{}
	t.bodies = make([][]byte, s.Catalogue)
	for i := range t.bodies {
		var at [3]int
		for {
			at = [3]int{rng.Intn(2), rng.Intn(sceneH - s.ImageH + 1), rng.Intn(sceneW - s.ImageW + 1)}
			if !used[at] {
				break
			}
		}
		used[at] = true
		x := serve.ExtractTile(scenes[at[0]], serve.Tile{PY0: at[1], PY1: at[1] + s.ImageH, PX0: at[2], PX1: at[2] + s.ImageW})
		img, err := imageio.ToImage(x)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := enc.Encode(&buf, img); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		if seen[sum] {
			return nil, fmt.Errorf("catalogue image %d repeats an earlier one", i)
		}
		seen[sum] = true
		t.bodies[i] = buf.Bytes()
	}
	return t, nil
}

// encoderPool lets one png.Encoder reuse its compressor across images.
type encoderPool struct{ b *png.EncoderBuffer }

func (p *encoderPool) Get() *png.EncoderBuffer  { return p.b }
func (p *encoderPool) Put(b *png.EncoderBuffer) { p.b = b }

// verifier checks every response: status 200, PNG dimensions scale× the
// input's, and — per catalogue image — the same bytes every time, so a
// cache hit is byte-identical to the miss that filled it.
type verifier struct {
	scale, h, w int
	mu          sync.Mutex
	first       map[int][32]byte
	mismatched  int
	badDims     int
	badStatus   map[int]int
	transport   int
	samples     map[int][]byte
}

func newVerifier(scale, h, w int) *verifier {
	return &verifier{scale: scale, h: h, w: w, first: map[int][32]byte{}, badStatus: map[int]int{}, samples: map[int][]byte{}}
}

// record returns whether the response counts as a success.
func (v *verifier) record(img, status int, body []byte, err error, keep bool) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err != nil {
		v.transport++
		return false
	}
	if status != http.StatusOK {
		v.badStatus[status]++
		return false
	}
	cfg, derr := png.DecodeConfig(bytes.NewReader(body))
	if derr != nil || cfg.Width != v.scale*v.w || cfg.Height != v.scale*v.h {
		v.badDims++
		return false
	}
	sum := sha256.Sum256(body)
	if prev, ok := v.first[img]; ok {
		if prev != sum {
			v.mismatched++
			return false
		}
	} else {
		v.first[img] = sum
	}
	if keep {
		if _, ok := v.samples[img]; !ok {
			v.samples[img] = append([]byte(nil), body...)
		}
	}
	return true
}

// pointResult is one open-loop rate point.
type pointResult struct {
	Rate float64 `json:"rate_rps"`
	Lat  dist    `json:"lat_ms"`
	// CycleLat is the median over the cycles of each cycle's p50 and
	// p90 (the gated figures); Lat pools every sample.
	CycleLat  dist      `json:"lat_ms_median_of_cycles,omitempty"`
	CycleP50s []float64 `json:"lat_ms_p50_per_cycle,omitempty"`
	CycleP90s []float64 `json:"lat_ms_p90_per_cycle,omitempty"`
	LagP90    float64   `json:"gen_lag_ms_p90"`
	GapMs     float64   `json:"gap_ms"`
	Failed    int       `json:"failed"`
	Valid     bool      `json:"valid"`
	Meets     bool      `json:"meets_limit"`
	Attempts  int       `json:"attempted"`
	// Shape is the latency at p10, p25, p50, p75, p90, p95 and p99.
	Shape [7]float64 `json:"lat_ms_shape"`
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	lat    []float64 // latencies of successful requests, in completion order
	lag    []float64 // each request's generator lag
	failed int
	sent   int
	wall   time.Duration
}

// load drives one phase. rate > 0 is an open loop: request i is due at
// start + i/rate and is timed from then; rate 0 is a closed loop of
// Callers callers.
func (sv *server) load(s serveSpec, tr *traffic, v *verifier, reqs []int, rate float64, keep map[int]bool) phaseResult {
	var (
		lat, lag []float64
		failed   int
	)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	spin := time.Millisecond
	if rate > 0 {
		spin = min(spin, time.Duration(float64(time.Second)/rate/10))
	}
	for c := 0; c < s.Callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					// A sleeping timer wakes up to a millisecond late here,
					// which would count as latency: sleep to just short of
					// the due time and spin the rest.
					if d := time.Until(due) - spin; d > 0 {
						time.Sleep(d)
					}
					for time.Now().Before(due) {
						runtime.Gosched()
					}
				}
				sent := time.Now()
				img := tr.pick[reqs[i]]
				status, body, err := sv.post(tr.bodies[img])
				d := time.Since(due)
				ok := v.record(img, status, body, err, keep[reqs[i]])
				mu.Lock()
				lag = append(lag, ms(sent.Sub(due)))
				if ok {
					lat = append(lat, ms(d))
				} else {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return phaseResult{lat: lat, lag: lag, failed: failed, sent: len(reqs), wall: time.Since(start)}
}

// pointOf summarises the open-loop phases run at one rate.
func pointOf(s serveSpec, rate float64, phases []phaseResult) pointResult {
	var lat, lag []float64
	var p50s, p90s []float64
	p := pointResult{Rate: rate, GapMs: 1000 / rate}
	for _, ph := range phases {
		lat = append(lat, ph.lat...)
		lag = append(lag, ph.lag...)
		p.Failed += ph.failed
		p.Attempts += ph.sent
		p50s = append(p50s, median(ph.lat))
		p90s = append(p90s, p90(ph.lat))
	}
	p.Lat, p.LagP90 = summarize(lat), p90(lag)
	if len(phases) > 1 {
		p.CycleLat = dist{P50: median(p50s), P90: median(p90s), N: len(lat)}
		p.CycleP50s, p.CycleP90s = p50s, p90s
	}
	for i, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		p.Shape[i] = math.Round(quantile(lat, q)*100) / 100
	}
	p.Valid = p.LagP90 <= s.LagFrac*p.GapMs
	p.Meets = p.Valid && p.Failed == 0 && p.Lat.P90 <= s.LatLimitMs
	return p
}

// setupServe builds the whole stack once: model, engine, server,
// catalogue, and a few requests so every lazily sized buffer exists.
func setupServe(s serveSpec, o opts) (*server, *traffic, *verifier, error) {
	tr, err := makeTraffic(s, o.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	sv, err := startServer(s, o.trace)
	if err != nil {
		return nil, nil, nil, err
	}
	v := newVerifier(sv.scale, s.ImageH, s.ImageW)
	if ph := sv.load(s, tr, v, tr.take(2*s.Callers), 0, nil); ph.failed > 0 {
		sv.close()
		return nil, nil, nil, fmt.Errorf("set-up requests failed: %d", ph.failed)
	}
	return sv, tr, v, nil
}

func runServe(o opts, s serveSpec) (*outcome, error) {
	s.schedule(o.seconds)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(s.TensorWorkers))
	var setups []float64
	var sv *server
	var tr *traffic
	var v *verifier
	for i := 0; i < s.Setups; i++ {
		t0 := time.Now()
		var err error
		sv, tr, v, err = setupServe(s, o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < s.Setups-1 {
			if err := sv.close(); err != nil {
				return nil, err
			}
		}
	}
	o.heap.Settle()
	out := &outcome{config: s, report: map[string]any{}, layers: map[string]metric{}}
	closed := false
	defer func() {
		if !closed {
			sv.close()
		}
	}()

	// The seeded direct-forward sample: requests of the low point whose
	// responses are compared with a direct Forward afterwards.
	keep := map[int]bool{}
	pickRNG := tensor.NewRNG(o.seed + 7)
	for i := 0; i < s.CheckSample; i++ {
		keep[tr.next+s.WarmRequests+pickRNG.Intn(s.LowReqs)] = true
	}
	// Warm-up fills the cache on zipf traffic and settles the batcher.
	warm := sv.load(s, tr, v, tr.take(s.WarmRequests), 0, keep)

	var before map[string]float64
	var err error
	if o.trace {
		if before, err = sv.scrape(); err != nil {
			return nil, err
		}
	}
	fwd0 := sv.fwdSnapshot()
	first := tr.next
	var lows, highs []phaseResult
	var satLat, satRates []float64
	var satFail, satSent int
	for c := 0; c < s.Cycles; c++ {
		lows = append(lows, sv.load(s, tr, v, tr.take(s.LowReqs), s.LowRate, keep))
		highs = append(highs, sv.load(s, tr, v, tr.take(s.HighReqs), s.HighRate, keep))
		sat := sv.load(s, tr, v, tr.take(s.SatReqs), 0, keep)
		satLat = append(satLat, sat.lat...)
		satRates = append(satRates, float64(len(sat.lat))/sat.wall.Seconds())
		satFail += sat.failed
		satSent += sat.sent
	}
	low, high := pointOf(s, s.LowRate, lows), pointOf(s, s.HighRate, highs)
	imgPerSec := median(satRates)
	var retained []*request.Trace
	if o.trace {
		retained = sv.srv.TraceStore().Retained()
	}
	measured := tr.next - first
	fwd1 := sv.fwdSnapshot()
	var after map[string]float64
	if o.trace {
		if after, err = sv.scrape(); err != nil {
			return nil, err
		}
	}

	// The heap is read before the probes, whose request count depends on
	// how they fare.
	o.heap.Settle()

	// max_rps: the open loop cannot hold a rate the closed loop cannot,
	// so probe the fixed ladder from the highest rung at most 3/4 of the
	// closed-loop rate: one rung up if it meets the limit, one down if
	// not.
	var probes []pointResult
	maxRPS := 0.0
	start := -1
	for i, r := range s.Ladder {
		if r <= 0.75*imgPerSec {
			start = i
		}
	}
	probe := func(i int) bool {
		if i < 0 || i >= len(s.Ladder) || s.Ladder[i] > imgPerSec {
			return false
		}
		p := pointOf(s, s.Ladder[i], []phaseResult{sv.load(s, tr, v, tr.take(probeSize(s, s.Ladder[i])), s.Ladder[i], keep)})
		probes = append(probes, p)
		if p.Meets {
			maxRPS = max(maxRPS, p.Rate)
		}
		return p.Meets
	}
	if probe(start) {
		probe(start + 1)
	} else {
		probe(start - 1)
	}

	// Every direct-forward sample must equal the served bytes.
	direct, sampled, derr := directChecks(sv, s, tr, v)
	if derr != nil {
		return nil, derr
	}
	closed = true
	if err := sv.close(); err != nil {
		return nil, err
	}

	failed := warm.failed + low.Failed + high.Failed + satFail
	for _, p := range probes {
		failed += p.Failed
	}
	out.attempted = tr.next
	out.failed = failed
	out.endToEnd = map[string]metric{
		"setup_s":    {median(setups), "s"},
		"img_per_s":  {imgPerSec, "img/s"},
		"lat_p50_ms": {low.CycleLat.P50, "ms"},
		"lat_p90_ms": {low.CycleLat.P90, "ms"},
	}
	r := out.report
	r["setup_s"] = map[string]any{"median": median(setups), "samples": setups}
	r["img_per_s"] = map[string]any{"median_of_cycles": imgPerSec, "per_cycle": satRates, "requests": satSent, "callers": s.Callers, "closed_loop": true, "lat_ms": summarize(satLat)}
	r["lat_p50_ms.low"], r["lat_p90_ms.low"] = low.CycleLat.P50, low.CycleLat.P90
	r["lat_p50_ms.high"], r["lat_p90_ms.high"] = high.CycleLat.P50, high.CycleLat.P90
	r["points"] = []pointResult{low, high}
	r["max_rps"] = maxRPS
	r["max_rps_probes"] = probes
	r["failed_frac"] = float64(failed) / float64(tr.next)
	r["direct_forward_checks"] = direct

	v.mu.Lock()
	out.check("responses_ok", v.transport == 0 && len(v.badStatus) == 0,
		"transport errors %d, non-200 statuses %v", v.transport, v.badStatus)
	out.check("response_dims", v.badDims == 0, "%d responses not %dx the input dims", v.badDims, sv.scale)
	out.check("repeat_bytes_identical", v.mismatched == 0, "%d responses differ from the first response for the same image", v.mismatched)
	v.mu.Unlock()
	out.check("direct_forward_identical", sampled > 0 && direct == sampled, "%d of %d sampled responses equal a direct Forward", direct, sampled)
	out.check("low_point_valid", low.Valid && low.Failed == 0, "low rate %.1f rps: lag p90 %.2f ms vs gap %.1f ms, %d failed", low.Rate, low.LagP90, low.GapMs, low.Failed)
	out.check("samples", low.Lat.N >= 100 && high.Lat.N >= 100, "low %d, high %d samples (p90 needs 100)", low.Lat.N, high.Lat.N)
	if !high.Valid {
		r["lat_p50_ms.high"], r["lat_p90_ms.high"] = "invalid: generator ran late", "invalid: generator ran late"
	}

	if o.trace {
		addServeLayers(out.layers, before, after, fwd0, fwd1, measured, high, retained)
		resp := tensor.New(1, 3, s.ImageH*sv.scale, s.ImageW*sv.scale)
		il, err := imageioLayers(tr.bodies[tr.pick[0]], resp)
		if err != nil {
			return nil, err
		}
		for k, m := range il {
			out.layers[k] = m
		}
	}
	return out, nil
}

type fwdSnap struct{ calls, images, nanos int64 }

func (sv *server) fwdSnapshot() fwdSnap {
	if sv.fwd == nil {
		return fwdSnap{}
	}
	return fwdSnap{sv.fwd.calls.Load(), sv.fwd.images.Load(), sv.fwd.nanos.Load()}
}

// addServeLayers derives the serving rows from the model wrapper, the
// /metrics counters scraped around the measured phases, and the request
// traces the server kept.
func addServeLayers(l map[string]metric, before, after map[string]float64, f0, f1 fwdSnap, reqs int, high pointResult, retained []*request.Trace) {
	d := func(name string) float64 { return after[name] - before[name] }
	calls := float64(f1.calls - f0.calls)
	l["models.infer_ms_per_call"] = metric{float64(f1.nanos-f0.nanos) / 1e6 / calls, "ms"}
	l["serve.batch_mean"] = metric{float64(f1.images-f0.images) / calls, "count"}
	l["serve.forward_calls_per_req"] = metric{calls / float64(reqs), "count"}
	l["serve.queue_wait_ms"] = metric{1000 * d("sr_queue_seconds_sum") / d("sr_queue_seconds_count"), "ms"}
	l["serve.batch_close_timeout_frac"] = metric{d("sr_batch_close_timeout_total") / d("sr_batches_total"), "ratio"}
	l["serve.rejected"] = metric{d("sr_rejected_total"), "count"}
	hits, misses := d("sr_cache_hit_total"), d("sr_cache_miss_total")
	l["cache.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	l["cache.evictions"] = metric{d("sr_cache_evict_total"), "count"}
	l["cache.inflight_wait"] = metric{d("sr_cache_inflight_wait_total"), "count"}
	l["gen.lag_ms_p90"] = metric{high.LagP90, "ms"}
	var cover float64
	var n int
	for _, t := range retained {
		if t.Status != http.StatusOK {
			continue
		}
		_, c := t.Attribution()
		cover += c
		n++
	}
	if n > 0 {
		l["serve.unattributed_frac"] = metric{1 - cover/float64(n), "ratio"}
	}
}

// directChecks recomputes each sampled response with a fresh replica of
// the registered model — tiled exactly as the engine tiles — and
// compares the PNG bytes.
func directChecks(sv *server, s serveSpec, tr *traffic, v *verifier) (ok, sampled int, err error) {
	m := sv.direct()
	v.mu.Lock()
	samples := v.samples
	v.mu.Unlock()
	for img, got := range samples {
		x, err := imageio.ReadPNG(bytes.NewReader(tr.bodies[img]))
		if err != nil {
			return 0, 0, err
		}
		h, w, sc := x.Dim(2), x.Dim(3), m.Scale()
		out := tensor.New(1, x.Dim(1), h*sc, w*sc)
		if s.TileLR < 0 || (h <= s.TileLR && w <= s.TileLR) {
			out.CopyFrom(m.Forward(x))
		} else {
			for _, t := range serve.SplitTiles(h, w, s.TileLR, m.Halo()) {
				serve.StitchTile(out, m.Forward(serve.ExtractTile(x, t)), t, sc)
			}
		}
		var buf bytes.Buffer
		if err := imageio.WritePNG(&buf, out); err != nil {
			return 0, 0, err
		}
		if bytes.Equal(buf.Bytes(), got) {
			ok++
		}
	}
	return ok, len(samples), nil
}
