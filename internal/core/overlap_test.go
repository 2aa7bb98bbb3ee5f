package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bps/internal/sim"
	"bps/internal/trace"
)

func rec(start, end sim.Time) trace.Record {
	return trace.Record{PID: 1, Blocks: 1, Start: start, End: end}
}

func TestOverlapTimeEmpty(t *testing.T) {
	if got := OverlapTime(nil); got != 0 {
		t.Fatalf("OverlapTime(nil) = %v", got)
	}
}

func TestOverlapTimeSingle(t *testing.T) {
	if got := OverlapTime([]trace.Record{rec(10, 30)}); got != 20 {
		t.Fatalf("got %v, want 20", got)
	}
}

// TestOverlapTimePaperFig2 reproduces the paper's Fig. 2: R1, R2, R3
// overlap partially (union Δt1), an idle gap, then R4 alone (Δt2);
// T = Δt1 + Δt2.
func TestOverlapTimePaperFig2(t *testing.T) {
	records := []trace.Record{
		rec(10, 40), // R1
		rec(20, 55), // R2 overlaps R1
		rec(35, 60), // R3 overlaps R2
		rec(80, 95), // R4 after an idle gap [60,80)
	}
	want := sim.Time((60 - 10) + (95 - 80))
	if got := OverlapTime(records); got != want {
		t.Fatalf("Fig.2 union = %v, want %v", got, want)
	}
	// The naive sum counts the concurrency multiply.
	if s := SumTime(records); s != 30+35+25+15 {
		t.Fatalf("SumTime = %v", s)
	}
	// The span includes the idle gap.
	if sp := Span(records); sp != 85 {
		t.Fatalf("Span = %v, want 85", sp)
	}
}

func TestOverlapTouchingIntervalsMerge(t *testing.T) {
	// [0,5) then [5,9): the Fig. 3 algorithm merges touching records
	// (endtime < starttime is the split test, and 5 < 5 is false).
	got := OverlapTime([]trace.Record{rec(0, 5), rec(5, 9)})
	if got != 9 {
		t.Fatalf("touching union = %v, want 9", got)
	}
}

func TestOverlapUnorderedInput(t *testing.T) {
	records := []trace.Record{rec(80, 95), rec(35, 60), rec(10, 40), rec(20, 55)}
	if got := OverlapTime(records); got != 65 {
		t.Fatalf("unordered union = %v, want 65", got)
	}
}

func TestOverlapContainedInterval(t *testing.T) {
	// A record fully inside another must not shrink the union.
	got := OverlapTime([]trace.Record{rec(0, 100), rec(20, 30)})
	if got != 100 {
		t.Fatalf("contained union = %v, want 100", got)
	}
	// Same when the contained one sorts second by start.
	got = OverlapTime([]trace.Record{rec(0, 100), rec(0, 10)})
	if got != 100 {
		t.Fatalf("same-start union = %v, want 100", got)
	}
}

func TestOverlapZeroLength(t *testing.T) {
	got := OverlapTime([]trace.Record{rec(5, 5), rec(7, 7)})
	if got != 0 {
		t.Fatalf("zero-length union = %v, want 0", got)
	}
}

// randomRecords builds n records with bounded coordinates from a seeded
// source, for property tests.
func randomRecords(rng *rand.Rand, n int) []trace.Record {
	records := make([]trace.Record, n)
	for i := range records {
		start := sim.Time(rng.Int63n(10_000))
		records[i] = rec(start, start+sim.Time(rng.Int63n(1_000)))
	}
	return records
}

// Property: max single duration ≤ union ≤ min(span, sum of durations).
func TestOverlapBoundsProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomRecords(rng, int(nRaw%50)+1)
		union := OverlapTime(records)
		var maxDur sim.Time
		for _, r := range records {
			if d := r.Duration(); d > maxDur {
				maxDur = d
			}
		}
		sum, span := SumTime(records), Span(records)
		if union < maxDur || union > sum && sum > 0 {
			return false
		}
		return union <= span
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the union is invariant under permutation of the records.
func TestOverlapPermutationInvariance(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomRecords(rng, int(nRaw%50)+1)
		want := OverlapTime(records)
		shuffled := append([]trace.Record(nil), records...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return OverlapTime(shuffled) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting any record into two touching halves leaves the
// union unchanged (the union is a measure, not a count).
func TestOverlapSplitInvariance(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomRecords(rng, int(nRaw%30)+1)
		want := OverlapTime(records)
		var split []trace.Record
		for _, r := range records {
			if d := r.Duration(); d >= 2 {
				mid := r.Start + d/2
				split = append(split, rec(r.Start, mid), rec(mid, r.End))
			} else {
				split = append(split, r)
			}
		}
		return OverlapTime(split) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: duplicating records never changes the union (idempotence).
func TestOverlapDuplicateInvariance(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomRecords(rng, int(nRaw%30)+1)
		want := OverlapTime(records)
		doubled := append(append([]trace.Record(nil), records...), records...)
		return OverlapTime(doubled) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapIntervalsDirect(t *testing.T) {
	if got := OverlapIntervals(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	ivs := []Interval{{Start: 10, End: 5}} // inverted: zero duration
	if got := OverlapIntervals(ivs); got != 0 {
		t.Fatalf("inverted = %v", got)
	}
	ivs = []Interval{{Start: 0, End: 10}, {Start: 20, End: 5}}
	if got := OverlapIntervals(ivs); got != 10 {
		t.Fatalf("mixed = %v", got)
	}
}

func TestIntervalDuration(t *testing.T) {
	if (Interval{Start: 5, End: 3}).Duration() != 0 {
		t.Fatal("inverted interval has nonzero duration")
	}
	if (Interval{Start: 3, End: 5}).Duration() != 2 {
		t.Fatal("duration wrong")
	}
}
