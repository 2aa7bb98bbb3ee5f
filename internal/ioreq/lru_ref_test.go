package ioreq

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refLRU is the one-list-node-per-page LRU that PageLRU replaced, kept
// as the oracle PageLRU must match page for page.
type refLRU struct {
	capacity int64
	lru      *list.List // front = most recent; values are refPages
	index    map[refPage]*list.Element
	hits     uint64
	misses   uint64
}

type refPage struct {
	space uint32
	pg    int64
}

func newRefLRU(capacity int64) *refLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &refLRU{capacity: capacity, lru: list.New(), index: make(map[refPage]*list.Element)}
}

func (c *refLRU) Lookup(k refPage) bool {
	if el, ok := c.index[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return true
	}
	c.misses++
	return false
}

func (c *refLRU) Contains(k refPage) bool {
	_, ok := c.index[k]
	return ok
}

func (c *refLRU) Insert(k refPage) {
	if el, ok := c.index[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.index[k] = c.lru.PushFront(k)
	for int64(c.lru.Len()) > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(refPage))
	}
}

func (c *refLRU) Reset() {
	c.lru.Init()
	c.index = make(map[refPage]*list.Element)
}

func (c *refLRU) order() []refPage {
	out := make([]refPage, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(refPage))
	}
	return out
}

// order walks the runs front to back, checking the structural
// invariants on the way, and returns the pages most recent first.
func (c *PageLRU) order() ([]refPage, error) {
	var out []refPage
	var prev int32
	segPagesSeen := make(map[int32]int32)
	for r := c.head; r != 0; r = c.runs[r].next {
		run := c.runs[r]
		if run.prev != prev {
			return nil, fmt.Errorf("run %d: prev link %d, want %d", r, run.prev, prev)
		}
		if run.n < 1 {
			return nil, fmt.Errorf("run %d: %d pages", r, run.n)
		}
		seg := c.segs[run.seg]
		hi := run.lo + int64(run.n) - 1
		if run.lo>>segShift != seg.key.seg || hi>>segShift != seg.key.seg {
			return nil, fmt.Errorf("run %d [%d,%d] leaves segment %d", r, run.lo, hi, seg.key.seg)
		}
		for pg := hi; pg >= run.lo; pg-- {
			if seg.run[pg&segMask] != r {
				return nil, fmt.Errorf("page %d: segment table says run %d, want %d", pg, seg.run[pg&segMask], r)
			}
			out = append(out, refPage{seg.key.space, pg})
		}
		segPagesSeen[run.seg] += run.n
		prev = r
	}
	if c.last != c.index[c.lastKey] {
		return nil, fmt.Errorf("remembered segment %d for %v, index has %d", c.last, c.lastKey, c.index[c.lastKey])
	}
	if c.tail != prev {
		return nil, fmt.Errorf("tail %d, want %d", c.tail, prev)
	}
	if len(segPagesSeen) != len(c.index) {
		return nil, fmt.Errorf("%d segments hold runs, index has %d", len(segPagesSeen), len(c.index))
	}
	for k, s := range c.index {
		if c.segs[s].key != k || c.segs[s].pages != segPagesSeen[s] {
			return nil, fmt.Errorf("segment %v: key %v, %d pages counted, runs hold %d",
				k, c.segs[s].key, c.segs[s].pages, segPagesSeen[s])
		}
	}
	return out, nil
}

// lruOp is one step of a differential run.
type lruOp struct {
	kind  byte // 0 Lookup, 1 Contains, 2 Insert, 3 InsertRange, 4 Reset
	space uint32
	pg    int64
	n     int64 // InsertRange length
}

func (o lruOp) String() string {
	return fmt.Sprintf("%s(%d, %d, %d)", [...]string{"Lookup", "Contains", "Insert", "InsertRange", "Reset"}[o.kind], o.space, o.pg, o.n)
}

// checkAgainstRef applies ops to a PageLRU and the reference, comparing
// results, recency order, Len, Hits and Misses after every step.
func checkAgainstRef(t *testing.T, capacity int64, ops []lruOp) {
	t.Helper()
	c, ref := NewPageLRU(capacity), newRefLRU(capacity)
	for i, o := range ops {
		k := refPage{o.space, o.pg}
		switch o.kind {
		case 0:
			if got, want := c.Lookup(o.space, o.pg), ref.Lookup(k); got != want {
				t.Fatalf("step %d %v: got %v, want %v", i, o, got, want)
			}
		case 1:
			if got, want := c.Contains(o.space, o.pg), ref.Contains(k); got != want {
				t.Fatalf("step %d %v: got %v, want %v", i, o, got, want)
			}
		case 2:
			c.Insert(o.space, o.pg)
			ref.Insert(k)
		case 3:
			c.InsertRange(o.space, o.pg, o.pg+o.n)
			for pg := o.pg; pg < o.pg+o.n; pg++ {
				ref.Insert(refPage{o.space, pg})
			}
		case 4:
			c.Reset()
			ref.Reset()
		}
		got, err := c.order()
		if err != nil {
			t.Fatalf("step %d %v: %v", i, o, err)
		}
		want := ref.order()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d %v: order\n got %v\nwant %v", i, o, got, want)
		}
		if c.Len() != len(want) || c.Hits() != ref.hits || c.Misses() != ref.misses {
			t.Fatalf("step %d %v: len/hits/misses %d/%d/%d, want %d/%d/%d",
				i, o, c.Len(), c.Hits(), c.Misses(), len(want), ref.hits, ref.misses)
		}
	}
}

// TestPageLRUMatchesReference drives random op mixes over three spaces
// and pages spanning four 64-page segments, at every capacity 1–64.
func TestPageLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capacity := int64(1); capacity <= 64; capacity++ {
		ops := make([]lruOp, 600)
		for i := range ops {
			o := lruOp{space: uint32(rng.Intn(3)), pg: rng.Int63n(4 * segPages)}
			switch x := rng.Intn(100); {
			case x < 40:
				o.kind = 0
			case x < 50:
				o.kind = 1
			case x < 80:
				o.kind = 2
			case x < 99:
				o.kind, o.n = 3, 1+rng.Int63n(2*segPages)
			default:
				o.kind = 4
			}
			ops[i] = o
		}
		checkAgainstRef(t, capacity, ops)
	}
}

// FuzzPageLRU decodes an op sequence from the input (first byte:
// capacity; then four bytes per op: kind, space, page, range length)
// and checks it against the reference.
func FuzzPageLRU(f *testing.F) {
	f.Add([]byte{8, 2, 0, 60, 10, 0, 0, 63, 0, 0, 1, 60, 0, 2, 0, 200, 0})
	f.Add([]byte{1, 2, 1, 5, 0, 0, 1, 5, 0, 4, 0, 0, 0, 0, 1, 5, 0})
	f.Add([]byte{40, 3, 0, 0, 40, 0, 0, 20, 0, 0, 0, 10, 0, 3, 1, 62, 4, 1, 0, 20, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int64(data[0]%64) + 1
		var ops []lruOp
		for b := data[1:]; len(b) >= 4; b = b[4:] {
			ops = append(ops, lruOp{kind: b[0] % 5, space: uint32(b[1] % 3), pg: int64(b[2]), n: int64(b[3] % 130)})
		}
		checkAgainstRef(t, capacity, ops)
	})
}
