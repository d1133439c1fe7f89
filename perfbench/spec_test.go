package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps the repository's BENCHMARK.json and
// the benchmark's own workloads.json in step: the same workloads with the
// same reasons, and the same metrics with the same units and directions.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(sp.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.json %d", len(bench.Workloads), len(sp.Workloads))
	}
	for i, w := range sp.Workloads {
		if bench.Workloads[i].Name != w.Name || bench.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.json %q", i, bench.Workloads[i].Name, w.Name)
		}
	}
	same := func(kind string, a, b []metricSpec) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, workloads.json %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Unit != b[i].Unit || a[i].Better != b[i].Better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, workloads.json %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, sp.EndToEnd)
	same("per_layer", bench.PerLayer, sp.PerLayer)

	// Every per-layer metric names workloads that exist and end-to-end
	// metrics it should move; every end-to-end metric says what it is on
	// every workload.
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var e2e []string
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, m.Name)
		for _, w := range names {
			if m.Meaning[w] == "" {
				t.Errorf("end-to-end metric %s has no meaning on %s", m.Name, w)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if len(m.Workloads) == 0 {
			t.Errorf("per-layer metric %s names no workload", m.Name)
		}
		for _, w := range m.Workloads {
			if !slices.Contains(names, w) {
				t.Errorf("per-layer metric %s names unknown workload %s", m.Name, w)
			}
		}
		for _, x := range m.Moves {
			if !slices.Contains(e2e, x) {
				t.Errorf("per-layer metric %s moves unknown end-to-end metric %s", m.Name, x)
			}
		}
	}
}
