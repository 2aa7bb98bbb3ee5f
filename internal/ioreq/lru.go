package ioreq

// Runs never cross an aligned segment of segPages pages, so the run
// holding a page is found by indexing its segment's table, not by
// searching the runs.
const (
	segShift = 6
	segPages = 1 << segShift
	segMask  = segPages - 1
)

// PageLRU is a least-recently-used presence set of pages, shared by every
// caching layer (the fsim server page cache and the client Cache). It
// tracks presence only: the simulator never stores data, just the timing
// consequences of hits and misses.
//
// A page is a page number within a space (one device, or one file).
// Recency is a list of runs of consecutive pages of one space, front =
// most recent. Within a run recency rises with page number, and a run's
// pages are adjacent in recency order, so the front-to-back order is
// each run's pages from high to low, run after run. A hit in the middle
// of a run splits it in place, a page one past the front run extends
// that run, and eviction trims the low end of the back run. Runs never
// cross an aligned 64-page segment, and a map from (space, segment) to
// that segment's page→run table finds any page in O(1) expected time.
// Runs and segments live in slabs linked by int32 indices, so a
// steady-state Lookup or Insert makes no heap allocation.
type PageLRU struct {
	capacity int64
	n        int64 // resident pages

	runs       []pageRun // slab; index 0 is the nil run once non-empty
	freeRuns   []int32
	head, tail int32 // most and least recent run; 0 when empty

	segs     []pageSeg // slab; index 0 is the nil segment once non-empty
	freeSegs []int32
	index    map[segKey]int32 // (space, segment) → segs index
	lastKey  segKey           // latest segment looked up
	last     int32            // always index[lastKey]

	hits   uint64
	misses uint64
}

// pageRun is the pages [lo, lo+n) of one segment, lo least recent.
type pageRun struct {
	lo         int64
	n          int32
	seg        int32
	prev, next int32 // more / less recent run; 0 = none
}

type segKey struct {
	space uint32
	seg   int64
}

// pageSeg maps each page of one segment to the run holding it.
type pageSeg struct {
	key   segKey
	run   [segPages]int32 // page offset → run; 0 = not resident
	pages int32           // resident pages; the segment is freed at 0
}

// NewPageLRU builds a PageLRU holding at most capacity pages (minimum 1).
func NewPageLRU(capacity int64) *PageLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &PageLRU{capacity: capacity, index: make(map[segKey]int32)}
}

// Lookup reports whether page pg of space is cached, updating recency
// and counters.
func (c *PageLRU) Lookup(space uint32, pg int64) bool {
	if s := c.segOf(segKey{space, pg >> segShift}); s != 0 {
		if r := c.segs[s].run[pg&segMask]; r != 0 {
			c.hits++
			c.touch(s, r, pg)
			return true
		}
	}
	c.misses++
	return false
}

// Contains reports presence without touching recency or counters.
func (c *PageLRU) Contains(space uint32, pg int64) bool {
	s := c.segOf(segKey{space, pg >> segShift})
	return s != 0 && c.segs[s].run[pg&segMask] != 0
}

// Insert adds page pg of space (or refreshes it), evicting the
// least-recently-used page when over capacity.
func (c *PageLRU) Insert(space uint32, pg int64) {
	s := c.segFor(segKey{space, pg >> segShift})
	if r := c.segs[s].run[pg&segMask]; r != 0 {
		c.touch(s, r, pg)
		return
	}
	c.segs[s].pages++
	c.pushFront(s, pg)
	if c.n++; c.n > c.capacity {
		c.evict()
	}
}

// InsertRange inserts the pages [lo, hi) of space in ascending order, as
// one Insert per page would.
func (c *PageLRU) InsertRange(space uint32, lo, hi int64) {
	for pg := lo; pg < hi; pg++ {
		c.Insert(space, pg)
	}
}

// Reset drops every page but keeps the hit/miss counters: they are
// cumulative across flushes, like kernel counters.
func (c *PageLRU) Reset() {
	c.runs, c.freeRuns = c.runs[:0], c.freeRuns[:0]
	c.segs, c.freeSegs = c.segs[:0], c.freeSegs[:0]
	clear(c.index)
	c.head, c.tail, c.last, c.n = 0, 0, 0, 0
}

// Len returns the number of cached pages.
func (c *PageLRU) Len() int { return int(c.n) }

// Hits returns the cumulative lookup hit count.
func (c *PageLRU) Hits() uint64 { return c.hits }

// Misses returns the cumulative lookup miss count.
func (c *PageLRU) Misses() uint64 { return c.misses }

// segOf returns the slab index of segment k, or 0 when none of its pages
// is resident. The answer for the latest key is remembered, present or
// absent, since callers walk a range of pages one at a time.
func (c *PageLRU) segOf(k segKey) int32 {
	if k != c.lastKey {
		c.lastKey, c.last = k, c.index[k]
	}
	return c.last
}

// segFor returns the slab index of segment k, creating it if absent.
func (c *PageLRU) segFor(k segKey) int32 {
	if s := c.segOf(k); s != 0 {
		return s
	}
	var s int32
	if n := len(c.freeSegs); n > 0 {
		s, c.freeSegs = c.freeSegs[n-1], c.freeSegs[:n-1]
	} else {
		if len(c.segs) == 0 {
			// The first page since NewPageLRU or Reset: no run exists
			// yet either. Slot 0 of each slab is the nil entry.
			c.segs = append(c.segs, pageSeg{})
			c.runs = append(c.runs, pageRun{})
		}
		c.segs = append(c.segs, pageSeg{})
		s = int32(len(c.segs) - 1)
	}
	// A freed segment's table is already all zero: it had no pages.
	c.segs[s].key = k
	c.index[k] = s
	c.last = s
	return s
}

// touch makes resident page pg, held by run r of segment s, the most
// recent page.
func (c *PageLRU) touch(s, r int32, pg int64) {
	run := &c.runs[r]
	hi := run.lo + int64(run.n) - 1
	switch {
	case r == c.head && pg == hi:
		return // already the most recent page
	case run.n == 1:
		c.unlink(r)
		c.freeRuns = append(c.freeRuns, r)
	case pg == run.lo:
		run.lo++
		run.n--
	case pg == hi:
		run.n--
	default:
		// The pages above pg were more recent than those below it, so
		// they split off into their own run just in front of r.
		run.n = int32(pg - run.lo)
		upper := c.newRun(pg+1, int32(hi-pg), s)
		c.linkBefore(upper, r)
		tbl := &c.segs[s].run
		for p := pg + 1; p <= hi; p++ {
			tbl[p&segMask] = upper
		}
	}
	c.pushFront(s, pg)
}

// pushFront records page pg of segment s as the most recent page,
// extending the front run when pg is one past its end.
func (c *PageLRU) pushFront(s int32, pg int64) {
	if h := c.head; h != 0 {
		if front := &c.runs[h]; front.seg == s && front.lo+int64(front.n) == pg {
			front.n++
			c.segs[s].run[pg&segMask] = h
			return
		}
	}
	r := c.newRun(pg, 1, s)
	c.linkBefore(r, c.head)
	c.segs[s].run[pg&segMask] = r
}

// evict drops the least recent page: the low end of the back run.
func (c *PageLRU) evict() {
	t := c.tail
	run := &c.runs[t]
	pg, s := run.lo, run.seg
	run.lo++
	if run.n--; run.n == 0 {
		c.unlink(t)
		c.freeRuns = append(c.freeRuns, t)
	}
	c.n--
	seg := &c.segs[s]
	seg.run[pg&segMask] = 0
	// The freed segment is never lastKey's: only Insert evicts, and the
	// segment it just looked up holds the page it just added.
	if seg.pages--; seg.pages == 0 {
		delete(c.index, seg.key)
		c.freeSegs = append(c.freeSegs, s)
	}
}

// newRun allocates an unlinked run from the slab.
func (c *PageLRU) newRun(lo int64, n, seg int32) int32 {
	var r int32
	if k := len(c.freeRuns); k > 0 {
		r, c.freeRuns = c.freeRuns[k-1], c.freeRuns[:k-1]
	} else {
		c.runs = append(c.runs, pageRun{})
		r = int32(len(c.runs) - 1)
	}
	c.runs[r] = pageRun{lo: lo, n: n, seg: seg}
	return r
}

// linkBefore links run r just in front of (more recent than) run at, or
// at the back of the list when at is 0.
func (c *PageLRU) linkBefore(r, at int32) {
	prev := c.tail
	if at != 0 {
		prev = c.runs[at].prev
	}
	c.runs[r].prev, c.runs[r].next = prev, at
	if prev == 0 {
		c.head = r
	} else {
		c.runs[prev].next = r
	}
	if at == 0 {
		c.tail = r
	} else {
		c.runs[at].prev = r
	}
}

// unlink removes run r from the recency list.
func (c *PageLRU) unlink(r int32) {
	prev, next := c.runs[r].prev, c.runs[r].next
	if prev == 0 {
		c.head = next
	} else {
		c.runs[prev].next = next
	}
	if next == 0 {
		c.tail = prev
	} else {
		c.runs[next].prev = prev
	}
}
