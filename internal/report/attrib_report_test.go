package report

import (
	"bytes"
	"strings"
	"testing"

	"bps/internal/core"
	"bps/internal/experiments"
	"bps/internal/obs/attrib"
	"bps/internal/sim"
)

func blameFigure(blame bool) experiments.Figure {
	pt := experiments.Point{
		Label: "r0",
		Metrics: core.Metrics{
			Ops: 100, Blocks: 6400, MovedBytes: 6400 * 512,
			IOTime: sim.Second / 2, ExecTime: sim.Second,
		},
	}
	if blame {
		pt.Blame = "device"
	}
	return experiments.Figure{
		ID: "faults", Title: "test", XLabel: "rate",
		Points: []experiments.Point{pt},
	}
}

// TestBlameColumnOnlyWhenAttributed: figure tables grow the attrib
// column only when a point carries blame — unattributed output stays
// byte-identical to the historical layout.
func TestBlameColumnOnlyWhenAttributed(t *testing.T) {
	var plain, attributed bytes.Buffer
	WriteFaultFigure(&plain, blameFigure(false))
	WriteFaultFigure(&attributed, blameFigure(true))
	if strings.Contains(plain.String(), "attrib") {
		t.Fatalf("unattributed table shows the attrib column:\n%s", plain.String())
	}
	if !strings.Contains(attributed.String(), "attrib") || !strings.Contains(attributed.String(), "device") {
		t.Fatalf("attributed table missing the blame column:\n%s", attributed.String())
	}

	plainCC, attribCC := blameFigure(false), blameFigure(true)
	var p2, a2 bytes.Buffer
	WriteClientCacheFigure(&p2, plainCC)
	WriteClientCacheFigure(&a2, attribCC)
	if strings.Contains(p2.String(), "attrib") {
		t.Fatalf("unattributed clientcache table shows the attrib column:\n%s", p2.String())
	}
	if !strings.Contains(a2.String(), "attrib") {
		t.Fatalf("attributed clientcache table missing the blame column:\n%s", a2.String())
	}
}

// TestWriteAttribution smoke-checks the blame-table writer: every
// layer row, the dominant line, stacks, latency, and windows render.
func TestWriteAttribution(t *testing.T) {
	rep := &attrib.Report{
		Total: sim.Second,
		Layers: []attrib.LayerTime{
			{Layer: attrib.LayerDevice, Exclusive: 3 * sim.Second / 4, Busy: 3 * sim.Second / 4, Spans: 10},
			{Layer: attrib.LayerClient, Exclusive: sim.Second / 4},
		},
		Stacks: []attrib.Stack{
			{Frames: []string{"app", "device"}, Time: 3 * sim.Second / 4},
			{Frames: []string{"app", "client"}, Time: sim.Second / 4},
		},
		Latency: []attrib.LatencyRow{
			{Name: "device/hdd/service_ns", Count: 10, Mean: 1000, P50: 1024, P95: 2048, P99: 2048, Max: 1999},
		},
		Windows: []core.Window{
			{Start: 0, End: sim.Second, Ops: 10, Blocks: 640,
				SumDur: sim.Second / 2, Busy: sim.Second},
		},
		WindowEvery: sim.Second,
	}
	var buf bytes.Buffer
	WriteAttribution(&buf, rep)
	out := buf.String()
	for _, want := range []string{"device", "dominant: device", "app;device",
		"device/hdd/service_ns", "windows (1.000s each)"} {
		if !strings.Contains(out, want) {
			t.Errorf("attribution output missing %q:\n%s", want, out)
		}
	}
	// Nil report renders nothing.
	var empty bytes.Buffer
	WriteAttribution(&empty, nil)
	if empty.Len() != 0 {
		t.Errorf("nil report produced output: %q", empty.String())
	}
}
