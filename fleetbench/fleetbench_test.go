package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The scenarios compile the examples' sources, found from the
// repository root; the benchmark always runs from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tiny runs one workload at the smallest size: one trial seed, two
// set-ups (so the determinism check runs), a one-second window.
func tiny(t *testing.T, workload string, traced, corrupt bool) (*result, *info) {
	t.Helper()
	o := &options{workload: workload, seed: 3, seconds: 1, trace: traced, trials: 1, reps: 2, work: t.TempDir(), corrupt: corrupt}
	if traced {
		o.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	res, in, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if traced {
		checkSpans(t, o.spans, in.TracedOps)
	}
	return res, in
}

// checkSpans reads a traced run's span file: one root span per
// traced op, every other span inside its parent, of the same op.
func checkSpans(t *testing.T, path string, ops int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Op, ID, Parent int
		Name           string
		Start, End     int64
	}
	type key struct{ op, id int }
	byID := map[key]rec{}
	var all []rec
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		byID[key{r.Op, r.ID}] = r
		all = append(all, r)
	}
	roots := 0
	for _, r := range all {
		if r.End < r.Start {
			t.Errorf("span %+v ends before it starts", r)
		}
		if r.Parent == -1 {
			roots++
			continue
		}
		p, ok := byID[key{r.Op, r.Parent}]
		if !ok || r.Start < p.Start || r.End > p.End {
			t.Errorf("span %+v is not inside a parent of its op", r)
		}
	}
	if roots != ops {
		t.Errorf("%d root spans for %d traced ops", roots, ops)
	}
}

func names(ms map[string]metric) []string {
	var out []string
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d names %v, want %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: name %q, want %q", what, got[i], want[i])
		}
	}
}

func TestWorkloads(t *testing.T) {
	for _, w := range []string{"ingest", "triage", "diagnose", "reproduce"} {
		t.Run(w, func(t *testing.T) {
			res, in := tiny(t, w, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			sameNames(t, "end-to-end", names(res.Metrics), defNames(endToEndMetrics))
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}

			traced, tin := tiny(t, w, true, false)
			if !traced.Correct {
				t.Fatalf("traced run failed %d of %d ops", traced.Failed, traced.Attempted)
			}
			sameNames(t, "per-layer", names(traced.Metrics), defNames(perLayer))
			if tin.TracedOps == 0 {
				t.Error("traced run traced no op")
			}
			// Two runs of one seed: the deterministic counts repeat.
			if d := diffCounts(in.Det, tin.Det); d != "" {
				t.Errorf("deterministic counts differ between runs: %s", d)
			}

			bad, bin := tiny(t, w, false, true)
			if bad.Correct || bad.Failed == 0 || bin.FailedFrac == 0 {
				t.Errorf("corrupted references: correct=%v failed=%d failed_frac=%v, want failures counted", bad.Correct, bad.Failed, bin.FailedFrac)
			}
			if _, err := json.Marshal(bad); err != nil {
				t.Errorf("a failed run's result does not encode: %v", err)
			}
		})
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the metric tables.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", what, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", what, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if setups[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(setups) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(setups))
	}
}
