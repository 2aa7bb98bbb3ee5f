package attrib

import (
	"math"
	"reflect"
	"testing"

	"bps/internal/core"
	"bps/internal/sim"
	"bps/internal/trace"
)

const (
	win = 10 * sim.Millisecond
	ms  = sim.Millisecond
)

// collectorSeries feeds accesses {blocks, start, end} through a
// Collector's live path and returns its window series, after checking
// that the live view, the memoized report and the post-hoc
// core.Timeline of the same records all agree.
func collectorSeries(t *testing.T, accesses ...[3]sim.Time) []core.Window {
	t.Helper()
	c := NewCollector(Config{Spans: true, WindowEvery: win})
	var records []trace.Record
	for _, a := range accesses {
		c.AddAccess(int64(a[0]), a[1], a[2])
		records = append(records, trace.Record{PID: 1, Blocks: int64(a[0]), Start: a[1], End: a[2]})
	}
	live := c.LiveWindows()
	rep := c.Report()
	if !reflect.DeepEqual(live, rep.Windows) || rep.WindowEvery != win {
		t.Fatalf("report series %+v (every %v) differs from live %+v", rep.Windows, rep.WindowEvery, live)
	}
	post, err := core.Timeline(trace.FromRecords(records), win)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, post) {
		t.Fatalf("live series %+v differs from post-hoc Timeline %+v", live, post)
	}
	return live
}

// TestWindowsCompletionAttribution: a completion on a boundary belongs
// to the left window.
func TestWindowsCompletionAttribution(t *testing.T) {
	wins := collectorSeries(t, [3]sim.Time{4, 0, win}, [3]sim.Time{8, win / 2, win + 1})
	if len(wins) != 2 || wins[0].Blocks != 4 || wins[1].Blocks != 8 {
		t.Fatalf("series = %+v", wins)
	}
}

// TestWindowsBusyUnion: concurrent accesses count once in Busy.
func TestWindowsBusyUnion(t *testing.T) {
	wins := collectorSeries(t, [3]sim.Time{1, 0, 6 * ms}, [3]sim.Time{1, 2 * ms, 6 * ms}, [3]sim.Time{1, 8 * ms, 14 * ms})
	if len(wins) != 2 || wins[0].Busy != 8*ms || wins[1].Busy != 4*ms {
		t.Fatalf("series = %+v", wins)
	}
}

// TestWindowsContinuousThroughGaps: idle windows stay in the series.
func TestWindowsContinuousThroughGaps(t *testing.T) {
	wins := collectorSeries(t, [3]sim.Time{1, 0, ms}, [3]sim.Time{1, 5 * win, 5*win + ms})
	if len(wins) != 6 || wins[3].Ops != 0 || wins[3].Busy != 0 {
		t.Fatalf("series = %+v", wins)
	}
}

// TestWindowRates: a collected window's rates match hand computation.
func TestWindowRates(t *testing.T) {
	wins := collectorSeries(t,
		[3]sim.Time{16, 0, 2 * ms}, [3]sim.Time{16, 0, 2 * ms},
		[3]sim.Time{16, 2 * ms, 4 * ms}, [3]sim.Time{16, 3 * ms, 5 * ms})
	w := wins[0] // 4 ops, 64 blocks, 8 ms summed, busy [0,5ms)
	if w.BPS() != 64/0.005 || w.IOPS() != 4/0.005 || w.ARPT() != 0.008/4 || w.Utilization() != 0.5 {
		t.Fatalf("rates of %+v: BPS %v IOPS %v ARPT %v util %v", w, w.BPS(), w.IOPS(), w.ARPT(), w.Utilization())
	}
}

// TestEstimatorRejectsBadInput: invalid accesses never reach the
// series, and a nil or window-less collector has none.
func TestEstimatorRejectsBadInput(t *testing.T) {
	c := NewCollector(Config{WindowEvery: win})
	c.AddAccess(1, -5, 5)
	c.AddAccess(1, 10, 5)
	if c.LiveWindows() != nil || c.Report().Windows != nil {
		t.Fatal("bad input produced windows")
	}
	var nc *Collector
	nc.AddAccess(1, 0, 1)
	if nc.LiveWindows() != nil || nc.WindowEvery() != 0 || NewCollector(Config{}).WindowEvery() != 0 {
		t.Fatal("disabled collector produced windows")
	}
}

// TestEstimatorOutOfOrderFinishes: add order does not matter.
func TestEstimatorOutOfOrderFinishes(t *testing.T) {
	a := [][3]sim.Time{{4, 0, 3 * ms}, {8, 2 * ms, 15 * ms}, {1, 9 * ms, 9 * ms}, {6, 25 * ms, 31 * ms}}
	if !reflect.DeepEqual(collectorSeries(t, a...), collectorSeries(t, a[3], a[1], a[0], a[2])) {
		t.Fatal("series depends on add order")
	}
}

// TestEstimatorStraddlingSpan: one long access spreads its busy time
// over every window it crosses.
func TestEstimatorStraddlingSpan(t *testing.T) {
	wins := collectorSeries(t, [3]sim.Time{10, win / 2, 3*win + win/2})
	if len(wins) != 4 || wins[1].Busy != win || wins[3].Ops != 1 {
		t.Fatalf("series = %+v", wins)
	}
}

// TestEstimatorSpanEndingOnBoundary: no window opens past a boundary
// completion.
func TestEstimatorSpanEndingOnBoundary(t *testing.T) {
	wins := collectorSeries(t, [3]sim.Time{5, win / 2, 2 * win})
	if len(wins) != 2 || wins[1].Ops != 1 || wins[1].Busy != win {
		t.Fatalf("series = %+v", wins)
	}
}

// TestWindowRatesNeverNaNOrInf: the degenerate windows a collector
// emits — idle, busy without completions, completions without busy —
// have finite rates.
func TestWindowRatesNeverNaNOrInf(t *testing.T) {
	wins := collectorSeries(t, [3]sim.Time{3, win, win}, [3]sim.Time{1, 2 * win, 4*win + ms})
	for i, w := range wins {
		for _, v := range []float64{w.BPS(), w.IOPS(), w.Bandwidth(), w.ARPT(), w.Utilization()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("window %d %+v has a non-finite rate", i, w)
			}
		}
	}
}

// TestEstimatorZeroDuration: an instantaneous access counts as an op.
func TestEstimatorZeroDuration(t *testing.T) {
	wins := collectorSeries(t, [3]sim.Time{3, win / 2, win / 2})
	if len(wins) != 1 || wins[0].Ops != 1 || wins[0].Blocks != 3 || wins[0].Busy != 0 {
		t.Fatalf("series = %+v", wins)
	}
}
