package core

import (
	"math/rand"
	"sort"
	"testing"

	"bps/internal/sim"
	"bps/internal/trace"
)

// endOrder returns a copy of records sorted by End, the order in which
// one engine domain completes them.
func endOrder(records []trace.Record) []trace.Record {
	out := append([]trace.Record(nil), records...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].End < out[j].End })
	return out
}

func accumulate(records []trace.Record) *Accumulator {
	a := &Accumulator{}
	for _, r := range records {
		a.Add(r.Blocks, r.Start, r.End)
	}
	return a
}

// checkOnline compares an accumulator with the post-hoc oracles over
// the same records: N = len, B = TotalBlocks, ΣD = SumTime and
// T = OverlapTime, all exactly, and Metrics equal to Compute.
func checkOnline(t *testing.T, how string, a *Accumulator, records []trace.Record) {
	t.Helper()
	g := trace.FromRecords(records)
	if a.Ops != int64(len(records)) || a.Blocks != g.TotalBlocks() || a.SumDur != SumTime(records) {
		t.Fatalf("%s: N, B, ΣD = %d, %d, %v; want %d, %d, %v",
			how, a.Ops, a.Blocks, a.SumDur, len(records), g.TotalBlocks(), SumTime(records))
	}
	if got, want := a.IOTime(), OverlapTime(records); got != want {
		t.Fatalf("%s: T = %v, OverlapTime = %v (records %v)", how, got, want, records)
	}
	if got, want := a.Metrics(77, 99), Compute(g, 77, 99); got != want {
		t.Fatalf("%s: Metrics %+v, Compute %+v", how, got, want)
	}
	for i := 1; i < len(a.busy.list); i++ {
		if prev, iv := a.busy.list[i-1], a.busy.list[i]; prev.End >= iv.Start || iv.Start >= iv.End {
			t.Fatalf("%s: spans %v and %v are not canonical", how, prev, iv)
		}
	}
}

// checkAllFeeds feeds records to accumulators three ways — in End
// order, in the given order, and split across k accumulators by
// part(i), each fed in End order as an engine domain would, then
// merged — and checks each against the oracles.
func checkAllFeeds(t *testing.T, records []trace.Record, k int, part func(i int) int) {
	t.Helper()
	checkOnline(t, "end order", accumulate(endOrder(records)), records)
	checkOnline(t, "given order", accumulate(records), records)

	parts := make([][]trace.Record, k)
	for i, r := range records {
		p := part(i) % k
		parts[p] = append(parts[p], r)
	}
	merged := &Accumulator{}
	for _, p := range parts {
		merged.Merge(accumulate(endOrder(p)))
	}
	checkOnline(t, "split and merged", merged, records)
}

// FuzzOnlineOverlap decodes records from bytes (five per record: a
// 16-bit start, a duration, flags that make the access zero-length or
// inverted, and a part index with the block count) and checks the
// online accumulator against OverlapTime and friends for every feed
// order.
func FuzzOnlineOverlap(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 10, 0, 1, 5, 0, 10, 0, 2})
	f.Add(uint8(3), []byte{0, 0, 5, 0, 0, 5, 0, 5, 0, 1, 20, 0, 3, 0, 2, 9, 0, 40, 0, 0})
	f.Add(uint8(2), []byte{100, 0, 50, 0, 0, 10, 0, 200, 0, 1, 0, 0, 0, 1, 0, 30, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		var records []trace.Record
		var parts []int
		for b := data; len(b) >= 5; b = b[5:] {
			start := sim.Time(b[0]) | sim.Time(b[1])<<8
			end := start + sim.Time(b[2])
			switch b[3] & 3 {
			case 1:
				end = start
			case 2:
				end = start - sim.Time(b[2]) // inverted: no time in the union
			}
			records = append(records, trace.Record{PID: int64(b[4] & 7), Blocks: int64(b[4] >> 3), Start: start, End: end})
			parts = append(parts, int(b[4]&7))
		}
		checkAllFeeds(t, records, int(k%8)+1, func(i int) int { return parts[i] })
	})
}

// TestOnlineMatchesOverlapTime runs the fuzz target's checks over
// seeded random records of many sizes, dense and sparse.
func TestOnlineMatchesOverlapTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		records := randomRecords(rng, rng.Intn(200)+1)
		if trial%2 == 1 { // spread out, so the union has many gaps
			for i := range records {
				records[i].Start *= 50
				records[i].End = records[i].Start + records[i].Duration()/4
			}
		}
		k := rng.Intn(6) + 1
		checkAllFeeds(t, records, k, func(int) int { return rng.Intn(k) })
	}
	checkOnline(t, "empty", &Accumulator{}, nil)
}

// inOrderRecords builds n records as one engine domain emits them:
// eight processes, each issuing back-to-back accesses of random length
// with an occasional think-time gap, sorted by completion.
func inOrderRecords(n int) []trace.Record {
	rng := rand.New(rand.NewSource(7))
	const procs = 8
	var clock [procs]sim.Time
	records := make([]trace.Record, n)
	for i := range records {
		p := i % procs
		start := clock[p]
		if rng.Intn(16) == 0 {
			start += sim.Time(rng.Int63n(int64(4 * sim.Millisecond)))
		}
		end := start + sim.Time(rng.Int63n(int64(sim.Millisecond))) + 1
		clock[p] = end
		records[i] = trace.Record{PID: int64(p), Blocks: 8, Start: start, End: end}
	}
	return endOrder(records)
}

// BenchmarkOverlapOnline measures the online accumulator over 1M
// in-order records; after the first pass sizes its span list it must
// allocate nothing. Compare BenchmarkOverlapPostHoc on the same records.
func BenchmarkOverlapOnline(b *testing.B) {
	recs := inOrderRecords(1 << 20)
	want := OverlapTime(recs)
	a := accumulate(recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*a = Accumulator{busy: busySpans{list: a.busy.list[:0]}} // keep the span capacity
		for _, r := range recs {
			a.Add(r.Blocks, r.Start, r.End)
		}
		if a.IOTime() != want {
			b.Fatalf("T = %v, want %v", a.IOTime(), want)
		}
	}
}

// BenchmarkOverlapPostHoc measures the post-hoc Fig. 3 path — copy to
// intervals, sort, merge — over the records BenchmarkOverlapOnline
// streams.
func BenchmarkOverlapPostHoc(b *testing.B) {
	recs := inOrderRecords(1 << 20)
	want := accumulate(recs).IOTime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := OverlapTime(recs); got != want {
			b.Fatalf("T = %v, want %v", got, want)
		}
	}
}
