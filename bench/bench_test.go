package bench

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// code to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)",
				i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
}

// checkEmitted asserts that got carries exactly the metrics BENCHMARK.json
// names, with their units, as finite numbers.
func checkEmitted(t *testing.T, workload string, want []struct{ Name, Unit string }, got []Metric) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	for _, m := range got {
		vals[m.Name] = m.Value
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", workload, m.Name, m.Value)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for i, w := range want {
		if i >= len(got) || got[i].Name != w.Name || got[i].Unit != w.Unit {
			t.Errorf("%s: metric %d is not %s in %s", workload, i, w.Name, w.Unit)
		}
	}
	return vals
}

// simCounters are the traced run's exact simulated counters.
func simCounters(vals map[string]float64) map[string]float64 {
	sim := map[string]float64{}
	for name, v := range vals {
		if strings.HasPrefix(name, "sim.") {
			sim[name] = v
		}
	}
	return sim
}

// TestWorkloadsSmoke runs every workload traced for about a second:
// every check passes, every metric in BENCHMARK.json is emitted with its
// unit, and the end-to-end metrics are non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	o := Options{Seed: 1, Duration: time.Second, Trace: true, Root: ".."}
	sims := map[string]map[string]float64{}
	for _, w := range Workloads {
		start := time.Now()
		r, err := Run(w.Name, o)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct() || r.Attempted < 2 {
			t.Fatalf("%s: %d of %d failed: %v", w.Name, r.Failed, r.Attempted, r.Errors)
		}
		for name, v := range checkEmitted(t, w.Name, b.EndToEnd, r.Metrics(false)) {
			if v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, v)
			}
		}
		sims[w.Name] = simCounters(checkEmitted(t, w.Name, b.PerLayer, r.Metrics(true)))
		if len(r.Spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.Name)
		}
		t.Logf("%s: %d operations in %v", w.Name, r.Attempted, time.Since(start).Round(time.Millisecond))
	}

	// The same seed repeats the simulated counters exactly.
	const again = "fleet_dense_clone"
	r, err := Run(again, o)
	if err != nil {
		t.Fatal(err)
	}
	sim := simCounters(r.values)
	for name, v := range sims[again] {
		if sim[name] != v {
			t.Errorf("%s seed 1 again: %s = %v, first run %v", again, name, sim[name], v)
		}
	}
	if sims[again]["sim.instructions"] == 0 || sims["vm_mix"]["sim.cycles"] == 0 {
		t.Errorf("sim counters missing: %v %v", sims[again], sims["vm_mix"])
	}
}

func TestSeedsGenerateInputs(t *testing.T) {
	for _, w := range Workloads {
		a, again, b := w.Inputs(1), w.Inputs(1), w.Inputs(2)
		if a != again {
			t.Errorf("%s: seed 1 gave %s, then %s", w.Name, a, again)
		}
		// The paper suite runs the paper's fixed configurations.
		if w.Name != "paper_suite" && a == b {
			t.Errorf("%s: seeds 1 and 2 both gave %s", w.Name, a)
		}
	}
}
