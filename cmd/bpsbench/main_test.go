package main

import (
	"strings"
	"testing"

	"bps/internal/experiments"
	"bps/internal/report"
)

func TestRunTables(t *testing.T) {
	// Tables are static; run() writes them to stdout, so exercise the
	// report writers through the same paths run() uses.
	var sb strings.Builder
	report.WriteTable1(&sb)
	report.WriteTable2(&sb)
	out := sb.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Table 2") {
		t.Fatalf("tables output:\n%s", out)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	suite := experiments.NewSuite(experiments.Params{Scale: 1.0 / 1024, Seed: 1})
	if err := run(suite, "fig99", true); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunSingleFigureTiny(t *testing.T) {
	// A tiny-scale single figure exercises the full pipeline.
	suite := experiments.NewSuite(experiments.Params{Scale: 1.0 / 2048, Seed: 1})
	if err := run(suite, "fig5", true); err != nil {
		t.Fatal(err)
	}
}

func TestTimedWrapsSuite(t *testing.T) {
	suite := experiments.NewSuite(experiments.Params{Scale: 1.0 / 2048, Seed: 1})
	f, err := timed(suite, "fig7", true)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig7" || !f.IsDetail {
		t.Fatalf("figure = %+v", f)
	}
	if _, err := timed(suite, "nope", true); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestSimOnlyFlagsRejectedOnLiveBackends(t *testing.T) {
	if err := simOnlyFlags("mem", map[string]bool{"live-procs": true, "windows": true}); err != nil {
		t.Fatalf("no sim-only flag set: %v", err)
	}
	for _, name := range []string{"trace-out", "metrics-out", "attrib-out", "forecast",
		"csv", "seeds", "roofline-out", "fault-rates", "shards"} {
		err := simOnlyFlags("os", map[string]bool{name: true})
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s on -backend os: err = %v", name, err)
		}
	}
}
