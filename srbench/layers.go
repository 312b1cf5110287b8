package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// layerUnits is every per-layer metric a traced run prints, with its
// unit. A workload that does not exercise a layer reports 0 for it: the
// layer did no work there.
var layerUnits = map[string]string{
	"data.next_ms":                     "ms",
	"nn.zero_grad_ms":                  "ms",
	"models.forward_ms":                "ms",
	"nn.loss_ms":                       "ms",
	"models.backward_ms":               "ms",
	"horovod.drain_ms":                 "ms",
	"nn.optim_ms":                      "ms",
	"train.step_ms":                    "ms",
	"train.unattributed_ms":            "ms",
	"train.allocs_per_step":            "count",
	"nn.conv_fwd_gflops":               "GFLOP/s",
	"nn.conv_bwd_gflops":               "GFLOP/s",
	"tensor.gemm_peak_gflops":          "GFLOP/s",
	"tensor.gemm_gflops.fwd":           "GFLOP/s",
	"tensor.gemm_gflops.bwd_w":         "GFLOP/s",
	"tensor.gemm_gflops.bwd_x":         "GFLOP/s",
	"tensor.gemm_frac.fwd":             "ratio",
	"tensor.gemm_frac.bwd_w":           "ratio",
	"tensor.gemm_frac.bwd_x":           "ratio",
	"horovod.allreduce_calls_per_step": "count",
	"horovod.allreduce_bytes_per_step": "bytes",
	"horovod.hidden_frac":              "ratio",
	"mpi.allreduce_ms_per_step":        "ms",
	"mpi.allreduce_gbps":               "GB/s",
	"mpi.allreduce_ms.lt128k":          "ms",
	"mpi.allreduce_ms.128k-16m":        "ms",
	"mpi.allreduce_ms.ge16m":           "ms",
	"mpi.sent_bytes_per_step":          "bytes",
	"imageio.decode_ms":                "ms",
	"imageio.encode_ms":                "ms",
	"models.infer_ms_per_call":         "ms",
	"serve.batch_mean":                 "count",
	"serve.forward_calls_per_req":      "count",
	"serve.queue_wait_ms":              "ms",
	"serve.batch_close_timeout_frac":   "ratio",
	"serve.rejected":                   "count",
	"serve.unattributed_frac":          "ratio",
	"cache.hit_ratio":                  "ratio",
	"cache.evictions":                  "count",
	"cache.inflight_wait":              "count",
	"gen.lag_ms_p90":                   "ms",
	"trace.overhead_frac":              "ratio",
}

// repeatCheck pins a value that must repeat bit for bit: the first run
// of this source tree, workload, seed and worker count records it under
// .bench_build, and every later run compares against the record.
func repeatCheck(o opts, what string, v float64, workers int) check {
	name := what + "_repeats"
	dir := filepath.Join(".bench_build", "srbench", "repeat")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s-seed%d-w%d", o.digest, o.workload, what, o.seed, workers))
	bits := fmt.Sprintf("%016x", math.Float64bits(v))
	if b, err := os.ReadFile(path); err == nil {
		prev := strings.TrimSpace(string(b))
		return check{Name: name, OK: prev == bits, Detail: fmt.Sprintf("recorded %s, this run %s", prev, bits)}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return check{Name: name, OK: false, Detail: err.Error()}
	}
	if err := os.WriteFile(path, []byte(bits+"\n"), 0o644); err != nil {
		return check{Name: name, OK: false, Detail: err.Error()}
	}
	return check{Name: name, OK: true, Detail: "first run of this code, seed and worker count: recorded " + bits}
}

// untracedPath is where an untraced run leaves its end-to-end metrics,
// so a traced run of the same code and workload can report the tracing
// overhead.
func untracedPath(o opts) string {
	return filepath.Join(".bench_build", "srbench", "untraced", o.digest+"-"+o.workload+".json")
}

func saveUntraced(o opts, m map[string]metric) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(untracedPath(o)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(untracedPath(o), b, 0o644)
}

// untraced returns the latest untraced run's end-to-end metrics for
// this code and workload, if one exists.
func untraced(o opts) (map[string]metric, bool) {
	b, err := os.ReadFile(untracedPath(o))
	if err != nil {
		return nil, false
	}
	var plain map[string]metric
	if json.Unmarshal(b, &plain) != nil {
		return nil, false
	}
	return plain, true
}
