package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bps/internal/sim"
	"bps/internal/trace"
)

const win = 10 * sim.Millisecond

// checkWindows verifies a window series against an oracle computed
// record by record: the grid is contiguous and aligned, the series runs
// from the window holding the earliest start to the one holding the
// last completion, every record's ops, blocks and duration land in its
// completion window (an end on a boundary belongs left, except on the
// first window's start), and each window's busy time is the union of
// the records clipped to it. Summed over the series this gives the
// three conservation laws Σ Ops = N, Σ Blocks = B and Σ Busy = T.
func checkWindows(records []trace.Record, every sim.Time, wins []Window) error {
	if len(records) == 0 {
		if wins != nil {
			return fmt.Errorf("no records but %d windows", len(wins))
		}
		return nil
	}
	if len(wins) == 0 {
		return fmt.Errorf("%d records but no windows", len(records))
	}
	for i, w := range wins {
		if w.Start%every != 0 || w.End-w.Start != every {
			return fmt.Errorf("window %d [%v,%v) is off the %v grid", i, w.Start, w.End, every)
		}
		if i > 0 && w.Start != wins[i-1].End {
			return fmt.Errorf("window %d starts at %v, after a hole", i, w.Start)
		}
	}
	first, last := wins[0], wins[len(wins)-1]
	minStart, maxEnd := records[0].Start, records[0].End
	for _, r := range records {
		minStart = min(minStart, r.Start)
		maxEnd = max(maxEnd, r.End)
	}
	if minStart < first.Start || minStart >= first.End {
		return fmt.Errorf("first window [%v,%v) does not hold the earliest start %v", first.Start, first.End, minStart)
	}
	if maxEnd > last.End || maxEnd < last.Start || maxEnd == last.Start && len(wins) > 1 {
		return fmt.Errorf("last window [%v,%v) does not hold the last completion %v", last.Start, last.End, maxEnd)
	}

	want := make([]Window, len(wins))
	var sumOps, sumBlocks int64
	var sumBusy sim.Time
	for i, w := range wins {
		want[i] = Window{Start: w.Start, End: w.End}
		var clipped []Interval
		for _, r := range records {
			if iv := (Interval{Start: max(r.Start, w.Start), End: min(r.End, w.End)}); iv.End > iv.Start {
				clipped = append(clipped, iv)
			}
		}
		want[i].Busy = OverlapIntervals(clipped)
		sumOps += w.Ops
		sumBlocks += w.Blocks
		sumBusy += w.Busy
	}
	for _, r := range records {
		i := 0
		for i < len(want)-1 && r.End > want[i].End {
			i++
		}
		want[i].Ops++
		want[i].Blocks += r.Blocks
		want[i].SumDur += r.Duration()
	}
	for i := range wins {
		if wins[i] != want[i] {
			return fmt.Errorf("window %d = %+v, want %+v", i, wins[i], want[i])
		}
	}
	g := trace.FromRecords(records)
	if sumOps != int64(len(records)) || sumBlocks != g.TotalBlocks() || sumBusy != OverlapTime(records) {
		return fmt.Errorf("sums ops/blocks/busy = %d/%d/%v, want %d/%d/%v",
			sumOps, sumBlocks, sumBusy, len(records), g.TotalBlocks(), OverlapTime(records))
	}
	return nil
}

// seriesOf runs both producers of the window series over records — the
// post-hoc Timeline and the estimator fed in reverse order — and
// requires them to agree before checking the series.
func seriesOf(records []trace.Record, every sim.Time) ([]Window, error) {
	wins, err := Timeline(trace.FromRecords(records), every)
	if err != nil {
		return nil, err
	}
	e := NewWindowEstimator(every)
	for i := len(records) - 1; i >= 0; i-- {
		e.Add(records[i].Blocks, records[i].Start, records[i].End)
	}
	if live := e.Windows(); !reflect.DeepEqual(live, wins) {
		return nil, fmt.Errorf("live series %+v differs from Timeline %+v", live, wins)
	}
	return wins, checkWindows(records, every, wins)
}

func blk(blocks int64, start, end sim.Time) trace.Record {
	return trace.Record{PID: 1, Blocks: blocks, Start: start, End: end}
}

// TestWindowConservationCases holds hand-picked edge cases, among them
// two on which the post-hoc and live series used to disagree.
func TestWindowConservationCases(t *testing.T) {
	s := sim.Second
	cases := []struct {
		name    string
		records []trace.Record
		windows int
	}{
		// A zero-length access on the first window's start: both
		// accesses complete in [1s,2s).
		{"zero-length on first boundary", []trace.Record{blk(8, s, s), blk(4, s, 3*s/2)}, 1},
		// A completion exactly on a boundary opens no trailing window.
		{"end on boundary", []trace.Record{blk(8, 0, s)}, 1},
		{"zero-length at origin", []trace.Record{blk(2, 0, 0)}, 1},
		{"zero-length on later boundary", []trace.Record{blk(1, 0, s/2), blk(2, s, s)}, 1},
		{"zero-length past a gap", []trace.Record{blk(1, 0, s/2), blk(2, 3*s, 3*s)}, 3},
		{"only a zero-length access on a boundary", []trace.Record{blk(5, 2*s, 2*s)}, 1},
		{"touching spans", []trace.Record{blk(1, 0, s), blk(1, s, 2*s)}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wins, err := seriesOf(c.records, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(wins) != c.windows {
				t.Fatalf("windows = %d, want %d: %+v", len(wins), c.windows, wins)
			}
		})
	}
}

// randomSeries draws up to 40 records and a window width; half the
// starts and ends are snapped to the window grid and about one access
// in five is zero-length, so boundary cases are common.
func randomSeries(rng *rand.Rand, n int) ([]trace.Record, sim.Time) {
	every := sim.Time(rng.Int63n(200)+1) * sim.Millisecond
	snap := func(t sim.Time) sim.Time {
		if rng.Intn(2) == 0 {
			return t / every * every
		}
		return t
	}
	records := make([]trace.Record, n)
	for i := range records {
		start := snap(sim.Time(rng.Int63n(int64(3 * sim.Second))))
		end := start
		if rng.Intn(5) > 0 {
			end = max(start, snap(start+sim.Time(rng.Int63n(int64(sim.Second)))))
		}
		records[i] = blk(rng.Int63n(100)+1, start, end)
	}
	return records, every
}

// FuzzWindows checks the same invariants on byte-coded records: the
// first byte picks the window width, then each triple codes a start, a
// duration and flags that snap the start or end to the grid or make
// the access zero-length.
func FuzzWindows(f *testing.F) {
	f.Add([]byte{10, 10, 0, 0, 10, 5, 0}) // zero-length on the first boundary
	f.Add([]byte{10, 0, 10, 0})           // end on a boundary
	f.Add([]byte{3, 1, 7, 1, 2, 0, 4, 9, 9, 2, 40, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		every := sim.Time(data[0]%32) + 1
		var records []trace.Record
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			start, end := sim.Time(b[0]), sim.Time(b[0])+sim.Time(b[1])
			if b[2]&1 != 0 {
				start = start / every * every
			}
			if b[2]&2 != 0 {
				end = max(start, end/every*every)
			}
			if b[2]&4 != 0 {
				end = start
			}
			records = append(records, blk(int64(b[2]>>3)+1, start, end))
		}
		if _, err := seriesOf(records, every); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTimelineEmptyAndInvalid(t *testing.T) {
	if _, err := Timeline(trace.Gather(), 0); err == nil {
		t.Error("zero window accepted")
	}
	pts, err := Timeline(trace.Gather(), sim.Second)
	if err != nil || pts != nil {
		t.Errorf("empty trace: pts=%v err=%v", pts, err)
	}
	for _, bad := range []trace.Record{blk(1, -5, 5), blk(1, 10, 5)} {
		if _, err := Timeline(trace.FromRecords([]trace.Record{blk(1, 0, 5), bad}), sim.Second); err == nil {
			t.Errorf("record [%v,%v) accepted", bad.Start, bad.End)
		}
	}
}

func TestTimelineBasic(t *testing.T) {
	c := trace.NewCollector(1)
	// Window grid of 1s. Activity: [0.2s,0.7s), idle, [2.1s,2.3s).
	c.Record(100, 200*sim.Millisecond, 700*sim.Millisecond)
	c.Record(50, 2100*sim.Millisecond, 2300*sim.Millisecond)
	pts, err := Timeline(trace.Gather(c), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("windows = %d, want 3", len(pts))
	}
	if pts[0].Ops != 1 || pts[0].Blocks != 100 || pts[0].Busy != 500*sim.Millisecond {
		t.Fatalf("window 0 = %+v", pts[0])
	}
	if pts[1].Ops != 0 || pts[1].Busy != 0 || pts[1].BPS() != 0 {
		t.Fatalf("idle window 1 = %+v", pts[1])
	}
	if pts[2].Ops != 1 || pts[2].Blocks != 50 || pts[2].Busy != 200*sim.Millisecond {
		t.Fatalf("window 2 = %+v", pts[2])
	}
	if u := pts[0].Utilization(); u != 0.5 {
		t.Fatalf("window 0 utilization = %v", u)
	}
	// Window 0 BPS: 100 blocks / 0.5s busy.
	if got := pts[0].BPS(); got != 200 {
		t.Fatalf("window 0 BPS = %v", got)
	}
}

func TestTimelineSpanningRecord(t *testing.T) {
	c := trace.NewCollector(1)
	// One access spanning three windows; completion attribution puts the
	// blocks in the last one, busy time is split exactly.
	c.Record(300, 500*sim.Millisecond, 2500*sim.Millisecond)
	pts, err := Timeline(trace.Gather(c), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("windows = %d", len(pts))
	}
	if pts[0].Blocks != 0 || pts[1].Blocks != 0 || pts[2].Blocks != 300 {
		t.Fatalf("completion attribution wrong: %+v", pts)
	}
	if pts[0].Busy != 500*sim.Millisecond || pts[1].Busy != sim.Second || pts[2].Busy != 500*sim.Millisecond {
		t.Fatalf("busy split wrong: %v %v %v", pts[0].Busy, pts[1].Busy, pts[2].Busy)
	}
}

func TestTimelineConcurrencyCountedOnce(t *testing.T) {
	c := trace.NewCollector(1)
	// Four fully-overlapping accesses in one window.
	for i := 0; i < 4; i++ {
		c.Record(10, 100*sim.Millisecond, 400*sim.Millisecond)
	}
	pts, err := Timeline(trace.Gather(c), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Busy != 300*sim.Millisecond {
		t.Fatalf("busy = %v, concurrent time counted multiply", pts[0].Busy)
	}
	if pts[0].Ops != 4 || pts[0].Blocks != 40 {
		t.Fatalf("ops/blocks = %d/%d", pts[0].Ops, pts[0].Blocks)
	}
}

// Property: for any records with 0 ≤ Start ≤ End and any window width,
// Timeline and the estimator agree and the series passes checkWindows —
// busy sums to the overlap union, ops and blocks to the totals.
func TestTimelineConservationProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records, every := randomSeries(rng, int(nRaw%40)+1)
		if _, err := seriesOf(records, every); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowsCompletionAttribution: work lands in the window containing
// the access's end, with an end exactly on a boundary belonging to the
// left window.
func TestWindowsCompletionAttribution(t *testing.T) {
	e := NewWindowEstimator(win)
	e.Add(4, 0, win)             // ends exactly on the first boundary → window 0
	e.Add(8, win/2, win+1)       // crosses the boundary → window 1
	e.Add(2, 2*win, 2*win+win/2) // window 2
	wins := e.Windows()

	if len(wins) != 3 {
		t.Fatalf("windows = %d, want 3", len(wins))
	}
	if wins[0].Ops != 1 || wins[0].Blocks != 4 {
		t.Errorf("window 0 ops/blocks = %d/%d, want 1/4", wins[0].Ops, wins[0].Blocks)
	}
	if wins[1].Ops != 1 || wins[1].Blocks != 8 {
		t.Errorf("window 1 ops/blocks = %d/%d, want 1/8", wins[1].Ops, wins[1].Blocks)
	}
	if wins[2].Ops != 1 || wins[2].Blocks != 2 {
		t.Errorf("window 2 ops/blocks = %d/%d, want 1/2", wins[2].Ops, wins[2].Blocks)
	}
	for i, w := range wins {
		if w.Start != sim.Time(i)*win || w.End != sim.Time(i+1)*win {
			t.Errorf("window %d bounds [%d,%d), want [%d,%d)", i, w.Start, w.End,
				sim.Time(i)*win, sim.Time(i+1)*win)
		}
	}
}

// TestWindowsBusyUnion: busy is the overlap union clipped to each
// window — concurrent accesses are counted once, idle gaps not at all.
func TestWindowsBusyUnion(t *testing.T) {
	e := NewWindowEstimator(win)
	// Two concurrent accesses covering [0, 6ms); idle until 8ms; then
	// one access crossing into the second window.
	e.Add(1, 0, 6*sim.Millisecond)
	e.Add(1, 2*sim.Millisecond, 6*sim.Millisecond)
	e.Add(1, 8*sim.Millisecond, 14*sim.Millisecond)
	wins := e.Windows()

	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	if want := 8 * sim.Millisecond; wins[0].Busy != want { // [0,6) ∪ [8,10)
		t.Errorf("window 0 busy = %v, want %v", wins[0].Busy, want)
	}
	if want := 4 * sim.Millisecond; wins[1].Busy != want { // [10,14)
		t.Errorf("window 1 busy = %v, want %v", wins[1].Busy, want)
	}
	if got, want := wins[0].Utilization(), 0.8; got != want {
		t.Errorf("window 0 utilization = %v, want %v", got, want)
	}
}

// TestWindowsContinuousThroughGaps: a long idle stretch still yields
// the in-between empty windows, so the series has no holes.
func TestWindowsContinuousThroughGaps(t *testing.T) {
	e := NewWindowEstimator(win)
	e.Add(1, 0, sim.Millisecond)
	e.Add(1, 5*win, 5*win+sim.Millisecond)
	wins := e.Windows()

	if len(wins) != 6 {
		t.Fatalf("windows = %d, want 6 (gap windows included)", len(wins))
	}
	for i := 1; i <= 4; i++ {
		if wins[i].Ops != 0 || wins[i].Busy != 0 {
			t.Errorf("gap window %d ops/busy = %d/%v, want 0/0", i, wins[i].Ops, wins[i].Busy)
		}
		if wins[i].BPS() != 0 || wins[i].ARPT() != 0 {
			t.Errorf("gap window %d rates nonzero", i)
		}
	}
}

// TestWindowRates checks the per-window metric arithmetic against hand
// computation.
func TestWindowRates(t *testing.T) {
	w := Window{
		Start: 0, End: win,
		Ops: 4, Blocks: 64,
		SumDur: 8 * sim.Millisecond,
		Busy:   5 * sim.Millisecond,
	}
	if got, want := w.BPS(), 64/0.005; got != want {
		t.Errorf("BPS = %v, want %v", got, want)
	}
	if got, want := w.IOPS(), 4/0.005; got != want {
		t.Errorf("IOPS = %v, want %v", got, want)
	}
	if got, want := w.Bandwidth(), 64*float64(trace.BlockSize)/0.005; got != want {
		t.Errorf("Bandwidth = %v, want %v", got, want)
	}
	if got, want := w.ARPT(), 0.008/4; got != want {
		t.Errorf("ARPT = %v, want %v", got, want)
	}

	var zero Window
	if zero.BPS() != 0 || zero.IOPS() != 0 || zero.Bandwidth() != 0 ||
		zero.ARPT() != 0 || zero.Utilization() != 0 {
		t.Error("zero window produced nonzero rates")
	}
}

// TestEstimatorRejectsBadInput: negative or inverted intervals are
// dropped rather than corrupting the grid.
func TestEstimatorRejectsBadInput(t *testing.T) {
	e := NewWindowEstimator(win)
	e.Add(1, -5, 5)
	e.Add(1, 10, 5)
	if e.Windows() != nil {
		t.Fatal("bad input produced windows")
	}
	var ne *WindowEstimator
	ne.Add(1, 0, 1)
	if ne.Windows() != nil || ne.Every() != 0 {
		t.Fatal("nil estimator produced data")
	}
}

// TestEstimatorOutOfOrderFinishes: the simulation feeds completions in
// end-time order, but the estimator must not depend on it — the same
// accesses added in any order produce the identical series.
func TestEstimatorOutOfOrderFinishes(t *testing.T) {
	accesses := [][3]sim.Time{ // {blocks (as Time for brevity), start, end}
		{4, 0, 3 * sim.Millisecond},
		{8, 2 * sim.Millisecond, 15 * sim.Millisecond},
		{2, 12 * sim.Millisecond, 13 * sim.Millisecond},
		{6, 25 * sim.Millisecond, 31 * sim.Millisecond},
		{1, 9 * sim.Millisecond, 9 * sim.Millisecond},
	}
	feed := func(order []int) []Window {
		e := NewWindowEstimator(win)
		for _, i := range order {
			a := accesses[i]
			e.Add(int64(a[0]), a[1], a[2])
		}
		return e.Windows()
	}
	sorted := feed([]int{0, 4, 2, 1, 3})
	reversed := feed([]int{3, 1, 2, 4, 0})
	shuffled := feed([]int{2, 0, 3, 1, 4})
	if !reflect.DeepEqual(sorted, reversed) || !reflect.DeepEqual(sorted, shuffled) {
		t.Fatalf("series depends on add order:\nsorted:   %+v\nreversed: %+v\nshuffled: %+v",
			sorted, reversed, shuffled)
	}
}

// TestEstimatorStraddlingSpan: one access spanning several whole
// windows books its ops/blocks in the completion window but spreads its
// busy time across every window it crosses.
func TestEstimatorStraddlingSpan(t *testing.T) {
	e := NewWindowEstimator(win)
	// [5ms, 35ms): crosses windows 0..3, completes in window 3.
	e.Add(10, win/2, 3*win+win/2)
	wins := e.Windows()
	if len(wins) != 4 {
		t.Fatalf("windows = %d, want 4", len(wins))
	}
	for i, w := range wins {
		wantOps := int64(0)
		if i == 3 {
			wantOps = 1
		}
		if w.Ops != wantOps {
			t.Errorf("window %d ops = %d, want %d (completion-time attribution)", i, w.Ops, wantOps)
		}
		wantBusy := win
		if i == 0 || i == 3 {
			wantBusy = win / 2
		}
		if w.Busy != wantBusy {
			t.Errorf("window %d busy = %v, want %v", i, w.Busy, wantBusy)
		}
	}
	if wins[3].Blocks != 10 {
		t.Errorf("window 3 blocks = %d, want 10", wins[3].Blocks)
	}
	// Middle windows are busy the whole time but complete nothing: their
	// rates must still be finite (zero ops, nonzero busy).
	if got := wins[1].BPS(); got != 0 {
		t.Errorf("window 1 BPS = %v, want 0 (no completions)", got)
	}
	if got := wins[1].Utilization(); got != 1 {
		t.Errorf("window 1 utilization = %v, want 1", got)
	}
}

// TestEstimatorSpanEndingOnBoundary: a span ending exactly on a window
// boundary contributes busy only to the left window and none past it.
func TestEstimatorSpanEndingOnBoundary(t *testing.T) {
	e := NewWindowEstimator(win)
	e.Add(5, win/2, 2*win) // ends exactly at the window-1/2 boundary
	wins := e.Windows()
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2 (boundary end belongs left)", len(wins))
	}
	if wins[1].Ops != 1 || wins[1].Blocks != 5 {
		t.Errorf("window 1 ops/blocks = %d/%d, want 1/5", wins[1].Ops, wins[1].Blocks)
	}
	if wins[0].Busy != win/2 || wins[1].Busy != win {
		t.Errorf("busy = %v,%v, want %v,%v", wins[0].Busy, wins[1].Busy, win/2, win)
	}
}

// TestWindowRatesNeverNaNOrInf sweeps degenerate windows — zero busy,
// zero width, zero ops, inverted bounds — through every rate helper:
// all must return finite values.
func TestWindowRatesNeverNaNOrInf(t *testing.T) {
	cases := []Window{
		{},
		{Start: win, End: win}, // zero width
		{Start: win, End: 2 * win, Ops: 3, Blocks: 12}, // ops but no busy
		{Start: win, End: 2 * win, Busy: win},          // busy but no ops
		{Start: 2 * win, End: win, Ops: 1, Blocks: 1},  // inverted bounds
		{Start: 0, End: win, SumDur: win, Busy: -win},  // negative busy
	}
	for i, w := range cases {
		for name, v := range map[string]float64{
			"BPS": w.BPS(), "IOPS": w.IOPS(), "Bandwidth": w.Bandwidth(),
			"ARPT": w.ARPT(), "Utilization": w.Utilization(),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("case %d: %s = %v on %+v", i, name, v, w)
			}
		}
	}
	// The common degenerate values are exactly zero, not merely finite.
	z := Window{Start: win, End: win}
	if z.BPS() != 0 || z.Utilization() != 0 {
		t.Errorf("zero-width window rates: BPS=%v Util=%v, want 0", z.BPS(), z.Utilization())
	}
}

// TestEstimatorZeroDuration: an instantaneous access still counts as an
// op in its window but adds no busy time.
func TestEstimatorZeroDuration(t *testing.T) {
	e := NewWindowEstimator(win)
	e.Add(3, win/2, win/2)
	wins := e.Windows()
	if len(wins) != 1 || wins[0].Ops != 1 || wins[0].Blocks != 3 || wins[0].Busy != 0 {
		t.Fatalf("zero-duration access: %+v", wins)
	}
}
