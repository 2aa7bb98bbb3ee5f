package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"bps/internal/core"
	"bps/internal/sim"
	"bps/internal/trace"
)

func TestCheckPoint(t *testing.T) {
	records := []trace.Record{
		{PID: 0, Blocks: 8, Start: 0, End: 10 * sim.Millisecond},
		{PID: 1, Blocks: 8, Start: 5 * sim.Millisecond, End: 20 * sim.Millisecond},
	}
	good := core.Metrics{Ops: 2, Blocks: 16, MovedBytes: 16 * 512, IOTime: 20 * sim.Millisecond, ExecTime: 25 * sim.Millisecond}
	if bad := checkPoint(good, records); len(bad) != 0 {
		t.Fatalf("a consistent point failed its checks: %v", bad)
	}

	cases := []struct {
		name   string
		mutate func(*core.Metrics)
		want   string
	}{
		{"B differs from the record blocks", func(m *core.Metrics) { m.Blocks = 17 }, "records sum to 16"},
		{"T exceeds the execution time", func(m *core.Metrics) { m.ExecTime = 15 * sim.Millisecond }, "exceeds the execution time"},
		{"BPS is not finite", func(m *core.Metrics) { m.IOTime, m.ExecTime = 0, 0 }, "BPS"},
	}
	for _, c := range cases {
		m := good
		c.mutate(&m)
		bad := checkPoint(m, records)
		if len(bad) == 0 || !strings.Contains(strings.Join(bad, "; "), c.want) {
			t.Errorf("%s: checks returned %v, want a failure mentioning %q", c.name, bad, c.want)
		}
	}
}

func TestResultCheckCountsFailures(t *testing.T) {
	var r result
	r.check(true, "fine")
	r.check(false, "point %d broke", 3)
	if r.failed != 1 || len(r.problems) != 1 || r.problems[0] != "point 3 broke" {
		t.Fatalf("failed = %d, problems = %q", r.failed, r.problems)
	}
	line, err := jsonLine(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Fatalf("result line %s does not report the failure", line)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the metrics the
// program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the program %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(benches))
	}
	for i, w := range spec.Workloads {
		if w.Name != benches[i].name || w.Why != benches[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, benches[i].name, benches[i].why)
		}
	}
}
