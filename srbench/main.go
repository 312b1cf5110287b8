// Command srbench is the repository's benchmark: one process that runs
// one workload of the super-resolution system at GOMAXPROCS = NumCPU,
// checks its outputs, and prints its end-to-end metrics (or, with
// -trace 1, the per-layer breakdown) as the last line of standard
// output. The line before it is the run's report: a header naming the
// host, code, Go version, GOMAXPROCS and seed, the workload's full
// configuration, every metric under its own name, and the checks.
//
//	bash srbench/run.sh --workload train-comm --seed 1 --seconds 40 --trace 0
//
// Workloads: train-comm and serve-zipf (see predictions.json for why
// each exists, the layers it stresses and bypasses, and which
// end-to-end metric each layer metric should move).
// It drives the modules only through their exported functions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one output check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload hands back to main.
type outcome struct {
	config    any               // the workload's full configuration
	endToEnd  map[string]metric // the gated metrics (every workload has each)
	layers    map[string]metric // per-layer metrics (traced runs)
	report    map[string]any    // every metric under the names of its own kind
	checks    []check
	attempted int
	failed    int
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// opts are the command-line inputs every workload sees.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	procs    int
	digest   string
	heap     *heapPeak
}

type workloadFn func(o opts) (*outcome, error)

var workloads = map[string]workloadFn{
	"train-comm": runTrainComm,
	"serve-zipf": runServeZipf,
}

// endToEndUnits and layerUnits list every metric the result line
// carries, with its unit; BENCHMARK.json declares the same names.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"mem_peak_mb": "MiB",
	"img_per_s":   "img/s",
	"lat_p50_ms":  "ms",
	"lat_p90_ms":  "ms",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("srbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: train-comm, serve-zipf")
	seed := fl.Uint64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 20, "measurement budget in seconds")
	traceFlag := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "srbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "srbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	digest, err := sourceDigest(".")
	if err != nil {
		fmt.Fprintln(stderr, "srbench: hashing the source tree:", err)
		return 1
	}
	o := opts{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, procs: procs, digest: digest}

	o.heap = newHeapPeak()
	began := time.Now()
	out, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "srbench: %s: %v\n", *name, err)
		return 1
	}
	out.endToEnd["mem_peak_mb"] = metric{o.heap.MiB(), "MiB"}

	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed}
	for _, c := range out.checks {
		if !c.OK {
			res.Correct = false
			fmt.Fprintf(stderr, "srbench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	if o.trace {
		if plain, ok := untraced(o); ok {
			diff := map[string]float64{}
			for k, t := range out.endToEnd {
				if p, found := plain[k]; found {
					diff[k] = t.Value - p.Value
				}
			}
			out.report["trace_overhead_vs_untraced"] = diff
			if _, done := out.layers["trace.overhead_frac"]; !done {
				out.layers["trace.overhead_frac"] = metric{out.endToEnd["lat_p50_ms"].Value/plain["lat_p50_ms"].Value - 1, "ratio"}
			}
		} else {
			out.report["trace_overhead_vs_untraced"] = "no untraced run of this code and workload recorded yet"
		}
		res.Metrics = out.layers
		for n, u := range layerUnits {
			if _, ok := res.Metrics[n]; !ok {
				res.Metrics[n] = metric{0, u}
			}
		}
	} else {
		if err := saveUntraced(o, out.endToEnd); err != nil {
			fmt.Fprintln(stderr, "srbench: recording the untraced metrics:", err)
			return 1
		}
		res.Metrics = out.endToEnd
		for n := range endToEndUnits {
			if _, ok := res.Metrics[n]; !ok {
				fmt.Fprintf(stderr, "srbench: workload did not measure %s\n", n)
				return 1
			}
		}
	}

	host, _ := os.Hostname()
	report := map[string]any{
		"header": map[string]any{
			"host":           host,
			"commit":         gitCommit("."),
			"source_sha256":  digest,
			"go_version":     runtime.Version(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"num_cpu":        runtime.NumCPU(),
			"seed":           o.seed,
			"workload":       *name,
			"trace":          o.trace,
			"seconds_budget": o.seconds,
			"wall_s":         time.Since(began).Seconds(),
		},
		"config":  out.config,
		"metrics": out.report,
		"checks":  out.checks,
	}
	if o.trace {
		report["layers"] = out.layers
	}
	line, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(stderr, "srbench: encoding the report:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintln(stderr, "srbench: encoding the result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// sourceDigest hashes go.mod and every .go file under root (the
// benchmark's build directory excluded), so a result names the exact
// code it measured even in a checkout that is not a git repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// without git metadata reports "none" (source_sha256 still identifies
// the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(l, " "); ok && r == ref {
			return sha
		}
	}
	return "none"
}
