package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; the
// tables in metrics.go and workloads.go are what the program prints.
func TestContractMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if (metricDef{g.Name, g.Unit, g.Better}) != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %v, program has %v", kind, i, g, want[i])
			}
		}
	}
	check("end_to_end", contract.EndToEnd, endToEnd)
	check("per_layer", contract.PerLayer, perLayer)
}

// Every workload, both trace modes, one op per phase: the plumbing and
// the correctness gate, not the numbers.
func TestSmoke(t *testing.T) {
	replayBudget = 1e6
	c := config{seed: 7, smoke: true, outDir: t.TempDir(), tmpDir: t.TempDir()}
	for i := range workloads {
		w := workloads[i]
		w.writeOps, w.readOps = 1, 1
		for trace, run := range []func(*workload, config) (result, error){runEndToEnd, runTraced} {
			res, err := run(&w, c)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s missing or in unit %q", w.name, trace, d.name, m.Unit)
				}
			}
		}
	}
}
