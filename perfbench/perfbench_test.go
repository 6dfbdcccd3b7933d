package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// tiny is a configuration small enough for the self-test.
func tiny(t *testing.T, workload string, trace, corrupt bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, scale: 0.02,
		dataDir: t.TempDir(), corruptOracle: corrupt}
}

// TestWorkloadsEmitDeclaredMetrics runs every declared workload end to
// end at a tiny scale, untraced and traced, and checks that each run is
// correct and emits exactly the metrics BENCHMARK.json declares.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			t.Fatalf("declared workload %q is not implemented", name)
		}
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			rep, err := execute(run, tiny(t, name, trace, false))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !rep.correct() || rep.failed != 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d: %v", name, trace, rep.correct(), rep.failed, rep.diag)
			}
			for _, m := range want {
				if _, ok := rep.metrics[m]; !ok {
					t.Errorf("%s trace=%t: metric %s missing", name, trace, m)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", name, trace, len(rep.metrics), len(want))
			}
		}
	}
}

// TestCorruptedOracleFails proves the correctness check catches wrong
// answers: with a deliberately corrupted oracle value every workload
// reports mismatches and an incorrect run.
func TestCorruptedOracleFails(t *testing.T) {
	for name, run := range workloads {
		rep, err := execute(run, tiny(t, name, false, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.correct() || rep.mismatches == 0 || rep.failed == 0 {
			t.Errorf("%s: corrupted oracle not caught: correct=%t mismatches=%d failed=%d",
				name, rep.correct(), rep.mismatches, rep.failed)
		}
	}
}
