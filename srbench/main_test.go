package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps ../BENCHMARK.json and the tables
// the result line is printed from in step: the same workloads, and every
// metric under the same name and unit.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(what string, listed []named, table map[string]string) {
		t.Helper()
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d, the table has %d", what, len(listed), len(table))
		}
		for _, m := range listed {
			if u, ok := table[m.Name]; !ok || (m.Unit != "" && u != m.Unit) {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, table has [%s] (present %v)", what, m.Name, m.Unit, u, ok)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndUnits)
	compare("per_layer", spec.PerLayer, layerUnits)
	wl := map[string]string{}
	for n := range workloads {
		wl[n] = ""
	}
	compare("workloads", spec.Workloads, wl)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
