package core

import (
	"slices"
	"sort"

	"bps/internal/sim"
)

// busySpans is the overlap union of a stream of access intervals, kept
// canonical: disjoint spans sorted by start, each ending strictly before
// the next begins (touching spans merge, as in the Fig. 3 merge), with
// total their summed length — T for the intervals added so far.
//
// Within one engine domain an access is recorded at its completion
// time, so ends arrive in nondecreasing order. A new interval [s, e)
// then ends at or after every span held, and it can only merge with a
// suffix of the list: pop the spans with End ≥ s, push their union with
// [s, e). That is amortised O(1) per interval, with no sort, and no
// allocation once the list's capacity covers the run's idle gaps. An
// interval that ends before the last span does (a caller feeding
// records out of End order) takes an exact binary-search insert
// instead, so the union is right for any order; only the cost differs.
type busySpans struct {
	list  []Interval
	total sim.Time
}

// add merges [start, end) into the union; empty and inverted intervals
// cover no time and are ignored, as OverlapTime ignores them.
func (b *busySpans) add(start, end sim.Time) {
	if end <= start {
		return
	}
	n := len(b.list)
	if n == 0 || end >= b.list[n-1].End {
		for n > 0 && b.list[n-1].End >= start {
			n--
			top := b.list[n]
			start = min(start, top.Start)
			b.total -= top.End - top.Start
		}
		b.list = append(b.list[:n], Interval{Start: start, End: end})
		b.total += end - start
		return
	}
	// Out of End order: the spans in [i, j) touch or overlap [start, end).
	i := sort.Search(n, func(k int) bool { return b.list[k].End >= start })
	j := sort.Search(n, func(k int) bool { return b.list[k].Start > end })
	if i < j {
		start = min(start, b.list[i].Start)
		end = max(end, b.list[j-1].End)
		for _, iv := range b.list[i:j] {
			b.total -= iv.End - iv.Start
		}
	}
	b.list = slices.Replace(b.list, i, j, Interval{Start: start, End: end})
	b.total += end - start
}

// merge folds another union into b with one linear pass over both
// sorted lists.
func (b *busySpans) merge(o *busySpans) {
	if len(o.list) == 0 {
		return
	}
	a := b.list
	out := make([]Interval, 0, len(a)+len(o.list))
	var total sim.Time
	for x, y := a, o.list; len(x) > 0 || len(y) > 0; {
		var next Interval
		if len(y) == 0 || len(x) > 0 && x[0].Start <= y[0].Start {
			next, x = x[0], x[1:]
		} else {
			next, y = y[0], y[1:]
		}
		if k := len(out) - 1; k >= 0 && out[k].End >= next.Start {
			if next.End > out[k].End {
				total += next.End - out[k].End
				out[k].End = next.End
			}
			continue
		}
		out = append(out, next)
		total += next.End - next.Start
	}
	b.list, b.total = out, total
}

// Accumulator computes a run's N, B, ΣD and overlapped I/O time T as
// its accesses complete, with no record buffer, sort or gather copy —
// the paper's Fig. 3 computed online. Feed it in End order for the fast
// path (one accumulator per engine domain does exactly that) and Merge
// the per-domain accumulators once the engine has drained; the result
// is bit-identical to Compute over the same records in any order.
type Accumulator struct {
	Ops    int64    // N: accesses added
	Blocks int64    // B: their required blocks
	SumDur sim.Time // ΣD: their summed durations (SumTime)
	busy   busySpans
}

// Add ingests one completed access. It implements trace.Sink.
func (a *Accumulator) Add(blocks int64, start, end sim.Time) {
	a.Ops++
	a.Blocks += blocks
	a.SumDur += end - start
	a.busy.add(start, end)
}

// IOTime returns T: the length of the union of every access added.
func (a *Accumulator) IOTime() sim.Time { return a.busy.total }

// Merge folds o into a: counts add and the busy unions merge exactly.
func (a *Accumulator) Merge(o *Accumulator) {
	a.Ops += o.Ops
	a.Blocks += o.Blocks
	a.SumDur += o.SumDur
	a.busy.merge(&o.busy)
}

// Metrics returns the run's measurements, as Compute would give them
// for the same accesses.
func (a *Accumulator) Metrics(movedBytes int64, execTime sim.Time) Metrics {
	return Metrics{
		Ops:        a.Ops,
		Blocks:     a.Blocks,
		MovedBytes: movedBytes,
		IOTime:     a.IOTime(),
		SumRespt:   a.SumDur,
		ExecTime:   execTime,
	}
}
