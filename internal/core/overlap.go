// Package core implements the BPS paper's contribution: the overlapped
// I/O-time computation (paper Fig. 3) and the four I/O metrics under
// comparison — IOPS, bandwidth, average response time, and BPS itself —
// computed from gathered trace records.
package core

import (
	"sort"
	"sync"

	"bps/internal/sim"
	"bps/internal/trace"
)

// Interval is a half-open span of simulated time [Start, End).
type Interval struct {
	Start, End sim.Time
}

// Duration returns End−Start, or 0 for inverted intervals.
func (iv Interval) Duration() sim.Time {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// intervalPool recycles the scratch interval slices OverlapTime builds,
// so that sweeps computing T for run after run stop re-allocating (and
// re-growing) the same buffer. A sync.Pool keeps this safe when the
// experiment runner computes metrics on several worker goroutines.
var intervalPool = sync.Pool{
	New: func() interface{} { s := make([]Interval, 0, 1024); return &s },
}

// OverlapTime computes T in the BPS equation: the union ("overlapped
// mode") of all access intervals. Concurrent accesses are counted once
// and idle gaps are excluded, per paper §III.A and Fig. 2. The input
// order does not matter; cost is O(n log n) for the sort plus one linear
// merge pass — the paper's Fig. 3 algorithm. The interval scratch buffer
// is pooled, so steady-state calls allocate nothing.
func OverlapTime(records []trace.Record) sim.Time {
	if len(records) == 0 {
		return 0
	}
	bufp := intervalPool.Get().(*[]Interval)
	ivs := (*bufp)[:0]
	for _, r := range records {
		ivs = append(ivs, Interval{Start: r.Start, End: r.End})
	}
	total := OverlapIntervals(ivs)
	*bufp = ivs[:0]
	intervalPool.Put(bufp)
	return total
}

// OverlapIntervals computes the union length of arbitrary intervals
// with the paper's Fig. 3 algorithm: sort ivs in place by start, then
// walk them, extending the current merged interval while the next one
// begins before (or exactly when) it ends, otherwise closing it and
// starting a new one.
func OverlapIntervals(ivs []Interval) sim.Time {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Start != ivs[j].Start {
			return ivs[i].Start < ivs[j].Start
		}
		return ivs[i].End < ivs[j].End
	})
	var total sim.Time
	cur := ivs[0]
	for _, next := range ivs[1:] {
		if cur.End < next.Start {
			total += cur.Duration()
			cur = next
			continue
		}
		if next.End > cur.End {
			cur.End = next.End
		}
	}
	return total + cur.Duration()
}

// SumTime is the naive alternative to OverlapTime: the arithmetic sum of
// every access duration, counting concurrent time multiply. It exists for
// the ablation benchmarks showing why the overlap union matters; ARPT is
// SumTime/N.
func SumTime(records []trace.Record) sim.Time {
	var total sim.Time
	for _, r := range records {
		total += r.Duration()
	}
	return total
}

// Span returns the wall span from the earliest start to the latest end,
// including idle gaps. Together with SumTime it brackets OverlapTime:
//
//	max single duration ≤ OverlapTime ≤ min(Span, SumTime)
func Span(records []trace.Record) sim.Time {
	if len(records) == 0 {
		return 0
	}
	lo, hi := records[0].Start, records[0].End
	for _, r := range records[1:] {
		if r.Start < lo {
			lo = r.Start
		}
		if r.End > hi {
			hi = r.End
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}
