package core

import (
	"fmt"

	"bps/internal/sim"
	"bps/internal/trace"
)

// Window is one fixed window of a run's windowed-BPS series. Windows
// are aligned to the simulation clock origin (start = i·width).
// Completed work is attributed to the window containing the access's
// end time (completion-time attribution, like iostat), and Busy is the
// intersection of the run's overlap union with the window, so a
// window's BPS never counts concurrent time twice and idle windows
// report zero.
type Window struct {
	Start sim.Time // window start (inclusive)
	End   sim.Time // window end (exclusive)

	Ops    int64    // accesses completed in the window
	Blocks int64    // required blocks of those accesses
	SumDur sim.Time // summed durations of those accesses (ARPT numerator)
	Busy   sim.Time // I/O activity inside the window (overlap union ∩ window)
}

// BPS returns the window's blocks per second of busy time.
func (w Window) BPS() float64 { return rate(float64(w.Blocks), w.Busy) }

// IOPS returns the window's completed operations per second of busy time.
func (w Window) IOPS() float64 { return rate(float64(w.Ops), w.Busy) }

// Bandwidth returns the window's required-byte bandwidth (blocks ×
// block size over busy time) in bytes/second — required, not moved:
// per-window file-system movement is not attributable to a window.
func (w Window) Bandwidth() float64 {
	return rate(float64(w.Blocks*trace.BlockSize), w.Busy)
}

// ARPT returns the window's average response time per access in seconds.
func (w Window) ARPT() float64 {
	if w.Ops == 0 {
		return 0
	}
	return w.SumDur.Seconds() / float64(w.Ops)
}

// Utilization returns the fraction of the window with I/O in flight.
func (w Window) Utilization() float64 {
	if w.End <= w.Start {
		return 0
	}
	return float64(w.Busy) / float64(w.End-w.Start)
}

// WindowEstimator ingests accesses as they complete and maintains
// per-window accumulators on a fixed grid: ops, blocks and durations
// land in their bucket in O(1), the busy union grows online as in
// Accumulator, and Windows() spreads it over the grid. The series does
// not depend on the order of Add calls, so the live series equals the
// post-hoc Timeline.
type WindowEstimator struct {
	every sim.Time
	ops   []int64
	blk   []int64
	dur   []sim.Time
	busy  busySpans

	minStart sim.Time
}

// NewWindowEstimator returns an estimator with the given window width
// (10 ms when every is not positive).
func NewWindowEstimator(every sim.Time) *WindowEstimator {
	if every <= 0 {
		every = 10 * sim.Millisecond
	}
	return &WindowEstimator{every: every}
}

// Every returns the window width.
func (e *WindowEstimator) Every() sim.Time {
	if e == nil {
		return 0
	}
	return e.every
}

// Add ingests one completed access. Accesses with a negative start or
// an end before their start are dropped.
func (e *WindowEstimator) Add(blocks int64, start, end sim.Time) {
	if e == nil || end < start || start < 0 {
		return
	}
	if len(e.ops) == 0 || start < e.minStart {
		e.minStart = start
	}

	idx := int(end / e.every)
	if end == sim.Time(idx)*e.every && idx > 0 {
		idx-- // completion exactly on a boundary belongs to the left window
	}
	for len(e.ops) <= idx {
		e.ops = append(e.ops, 0)
		e.blk = append(e.blk, 0)
		e.dur = append(e.dur, 0)
	}
	e.ops[idx]++
	e.blk[idx] += blocks
	e.dur[idx] += end - start
	e.busy.add(start, end)
}

// Windows assembles the time series: every window from the one holding
// the earliest start to the one holding the last completion, empty
// windows included so the series is continuous.
func (e *WindowEstimator) Windows() []Window {
	if e == nil || len(e.ops) == 0 {
		return nil
	}
	first := int(e.minStart / e.every)
	wins := make([]Window, max(len(e.ops)-first, 1))
	for i := range wins {
		wins[i].Start = sim.Time(first+i) * e.every
		wins[i].End = sim.Time(first+i+1) * e.every
	}
	for idx := range e.ops {
		// Only a zero-length access on the first window's left boundary
		// lands in bucket first-1; it belongs to the first window.
		w := &wins[max(idx-first, 0)]
		w.Ops += e.ops[idx]
		w.Blocks += e.blk[idx]
		w.SumDur += e.dur[idx]
	}

	// Busy: spread each span of the union over the windows it crosses.
	for _, iv := range e.busy.list {
		for t := iv.Start; t < iv.End; {
			w := &wins[int(t/e.every)-first]
			seg := min(iv.End, w.End)
			w.Busy += seg - t
			t = seg
		}
	}
	return wins
}

// Timeline slices a run into fixed windows and measures each one,
// turning the single-number BPS into a time series — the paper's
// "easy-to-use toolkit" direction (§V). It is the WindowEstimator fed
// the whole collection after the fact. Records must satisfy
// 0 ≤ Start ≤ End.
func Timeline(g *trace.Global, window sim.Time) ([]Window, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: timeline window %v must be positive", window)
	}
	e := NewWindowEstimator(window)
	for _, r := range g.Records() {
		if r.Start < 0 || r.End < r.Start {
			return nil, fmt.Errorf("core: timeline record [%v, %v) is not a valid access", r.Start, r.End)
		}
		e.Add(r.Blocks, r.Start, r.End)
	}
	return e.Windows(), nil
}
