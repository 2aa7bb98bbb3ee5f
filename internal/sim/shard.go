package sim

import (
	"fmt"
	"sort"
)

// This file implements the sharded execution mode: one engine, many
// domains (per-node event calendars), executed concurrently by a fixed
// pool of shard workers under conservative lookahead windows.
//
// Protocol (synchronous conservative / bounded-lag):
//
//	m       = min over all domains of the next pending event time
//	horizon = m + lookahead
//
// Every domain may safely dispatch all events with timestamp < horizon,
// because the earliest influence any domain can exert on another is a
// Proc.Post whose delivery time is ≥ sender.now + lookahead ≥ horizon —
// so all cross-domain mail produced inside a window lands in a later
// window. Between windows the coordinator merges all staged mail in the
// deterministic order (deliveryTime, srcDomain, srcSeq) and pushes it
// into the destination calendars. That order — and therefore every
// simulation result — is a pure function of the domain topology and the
// seed: shard workers only decide *which CPU* runs a domain's window,
// never the order of events inside a calendar, so results are
// bit-identical for every worker count (-shards 1, 2, 4, 8, ...).
//
// The lookahead is the minimum cross-domain signalling delay, registered
// by the network layer as its minimum link latency (SetLookahead).

// mail is one staged cross-domain event: fn will run at time at in
// domain dst. (at, src, seq) is the deterministic merge key.
type mail struct {
	at  Time
	seq uint64
	src int32
	dst int32
	fn  func(Ctx)
}

// Ctx is a capability to act inside one domain's execution context.
// Post callbacks receive one so they can read the destination domain's
// clock, schedule follow-up events there, and spawn processes into it —
// the things an event callback may only do in its own domain.
type Ctx struct{ d *domain }

// Now returns the domain's current simulated time.
func (c Ctx) Now() Time { return c.d.now }

// DomainID returns the domain's id.
func (c Ctx) DomainID() int { return c.d.id }

// At schedules fn at absolute time t in the same domain.
func (c Ctx) At(t Time, fn func(Ctx)) {
	d := c.d
	d.schedule(t, func() { fn(Ctx{d}) }, false)
}

// Spawn creates a process in the same domain starting at the current
// time.
func (c Ctx) Spawn(name string, body func(*Proc)) *Proc {
	return c.d.spawn(c.d.now, name, body, false)
}

// EnableSharding switches the engine into sharded mode with the given
// number of shard workers (goroutines executing domain windows; values
// below 1 are clamped to 1). It must be called right after NewEngine,
// before any model construction: only then do NewDomain calls create
// real domains. The worker count affects wall-clock speed only — results
// are bit-identical for every value.
//
// Sharded mode is a distinct semantic mode, not a transparent
// accelerator of classic mode: model layers (netsim, pfs) switch their
// cross-node interactions to mailbox delivery, so sharded results are
// comparable across shard counts but not with classic (-shards 0) runs.
func (e *Engine) EnableSharding(workers int) {
	if workers < 1 {
		workers = 1
	}
	e.shardingOn = true
	e.workers = workers
}

// Sharded reports whether EnableSharding was called. Model layers use it
// to pick between classic blocking interactions and domain mailboxes.
func (e *Engine) Sharded() bool { return e.shardingOn }

// Workers returns the shard worker count (1 when not sharded).
func (e *Engine) Workers() int {
	if !e.shardingOn {
		return 1
	}
	return e.workers
}

// NumDomains returns the number of domains (1 classically).
func (e *Engine) NumDomains() int { return len(e.domains) }

// SetLookahead lowers the engine's conservative lookahead to d if it is
// smaller than the current value (0 means unset). The network layer
// registers its minimum link latency here; a sharded Run panics if no
// positive lookahead was registered.
func (e *Engine) SetLookahead(d Time) {
	if d <= 0 {
		panic("sim: lookahead must be positive")
	}
	if e.lookahead == 0 || d < e.lookahead {
		e.lookahead = d
	}
}

// Lookahead returns the registered conservative lookahead (0 = unset).
func (e *Engine) Lookahead() Time { return e.lookahead }

// NewDomain creates a new domain and returns its id. On an unsharded
// engine it is a no-op returning domain 0, so model code can partition
// unconditionally and classic mode collapses to the single calendar.
// Must be called during construction, never from a running simulation.
// The domain RNG seed is derived from (engine seed, id, name), so a
// domain's random stream depends only on the topology, not on the
// worker count.
func (e *Engine) NewDomain(name string) int {
	if !e.shardingOn {
		return 0
	}
	d := &domain{
		eng:     e,
		id:      len(e.domains),
		name:    name,
		live:    make(map[*Proc]struct{}),
		procs:   make(map[*Proc]struct{}),
		rngSeed: deriveDomainSeed(e.seed, len(e.domains), name),
	}
	e.domains = append(e.domains, d)
	return d.id
}

// SetDomain moves the construction cursor: subsequent Spawn, NewResource,
// NewQueue, At, Rand etc. bind to the given domain. It returns the
// previous cursor so callers can restore it. On an unsharded engine only
// domain 0 exists and SetDomain(0) is a no-op.
func (e *Engine) SetDomain(id int) int {
	prev := e.cur.id
	e.cur = e.domains[id]
	return prev
}

// CurrentDomain returns the construction cursor's domain id.
func (e *Engine) CurrentDomain() int { return e.cur.id }

// DomainName returns the name of domain id ("" for domain 0).
func (e *Engine) DomainName(id int) string { return e.domains[id].name }

// deriveDomainSeed mixes the engine seed with the domain's identity via
// FNV-1a, the same construction the experiment runner uses for sweep
// seeds: a cheap, stable, well-mixed pure function.
func deriveDomainSeed(base int64, id int, name string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		mix(byte(uint64(base) >> (8 * i)))
	}
	for i := 0; i < 4; i++ {
		mix(byte(uint32(id) >> (8 * i)))
	}
	for i := 0; i < len(name); i++ {
		mix(name[i])
	}
	return int64(h)
}

// Post schedules fn to run at absolute time at in domain dst. It is the
// only legal cross-domain interaction: on a sharded engine the event is
// staged in the sender's outbox and merged into dst's calendar at the
// next window barrier, which requires at ≥ now + lookahead (the network
// layer guarantees this by construction — every cross-node message pays
// at least the minimum link latency). Same-domain Posts go through the
// same mailbox so that event ordering is independent of how nodes are
// grouped into domains. On an unsharded engine Post schedules directly.
func (p *Proc) Post(dst int, at Time, fn func(Ctx)) {
	d := p.dom
	e := d.eng
	if len(e.domains) == 1 {
		d.schedule(at, func() { fn(Ctx{d}) }, false)
		return
	}
	if at < d.now+e.lookahead {
		panic(fmt.Sprintf("sim: Post at %v violates lookahead %v from now %v", at, e.lookahead, d.now))
	}
	d.outSeq++
	d.outbox = append(d.outbox, mail{at: at, seq: d.outSeq, src: int32(d.id), dst: int32(dst), fn: fn})
}

// windowResult is one worker's report after executing a window.
type windowResult struct {
	min     Time // earliest pending event across the worker's domains
	fgDelta int  // net foreground-event change across the window
	mail    []mail
	trap    interface{}
}

// shardWorker owns a static partition of domains (ids ≡ index mod
// worker count) and executes their windows on a dedicated goroutine. The
// heap orders the partition by next-event time so a window touches only
// the domains that actually have events before the horizon.
type shardWorker struct {
	doms    []*domain // binary min-heap by nextEventAt
	in      chan Time // horizon broadcast
	out     chan windowResult
	mailBuf []mail
}

func (w *shardWorker) less(i, j int) bool {
	return w.doms[i].nextEventAt() < w.doms[j].nextEventAt()
}

func (w *shardWorker) swap(i, j int) {
	w.doms[i], w.doms[j] = w.doms[j], w.doms[i]
	w.doms[i].hpos = i
	w.doms[j].hpos = j
}

func (w *shardWorker) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.less(i, parent) {
			break
		}
		w.swap(i, parent)
		i = parent
	}
}

func (w *shardWorker) siftDown(i int) {
	n := len(w.doms)
	for {
		min := i
		if l := 2*i + 1; l < n && w.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && w.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		w.swap(i, min)
		i = min
	}
}

func (w *shardWorker) init() {
	for i := range w.doms {
		w.doms[i].hpos = i
	}
	for i := len(w.doms)/2 - 1; i >= 0; i-- {
		w.siftDown(i)
	}
}

// window executes one conservative window on every owned domain with
// events before horizon. Any panic from the simulation program (re-raised
// by the domain dispatch loop) is captured into the result so the
// coordinator can re-panic it on the Run caller's goroutine.
func (w *shardWorker) window(horizon Time) (res windowResult) {
	res.min = MaxTime
	res.mail = w.mailBuf[:0]
	defer func() {
		if r := recover(); r != nil {
			res.trap = r
		}
	}()
	for len(w.doms) > 0 && w.doms[0].nextEventAt() < horizon {
		d := w.doms[0]
		fg0 := d.fg
		d.runTo(horizon)
		res.fgDelta += d.fg - fg0
		if len(d.outbox) > 0 {
			res.mail = append(res.mail, d.outbox...)
			d.outbox = d.outbox[:0]
		}
		w.siftDown(0) // d's next event is now ≥ horizon
	}
	if len(w.doms) > 0 {
		res.min = w.doms[0].nextEventAt()
	}
	return res
}

func (w *shardWorker) loop() {
	for horizon := range w.in {
		res := w.window(horizon)
		w.mailBuf = res.mail // reuse: coordinator consumes before next send
		w.out <- res
	}
}

// runSharded is the sharded RunUntil: a coordinator loop alternating
// parallel windows with deterministic mail merges.
func (e *Engine) runSharded(deadline Time) error {
	if e.lookahead <= 0 {
		panic("sim: sharded run requires a positive lookahead (netsim registers its minimum link latency; call SetLookahead)")
	}
	nw := e.workers
	if nw > len(e.domains) {
		nw = len(e.domains)
	}
	workers := make([]*shardWorker, nw)
	for i := range workers {
		workers[i] = &shardWorker{
			in:  make(chan Time, 1),
			out: make(chan windowResult, 1),
		}
	}
	for i, d := range e.domains {
		w := workers[i%nw]
		w.doms = append(w.doms, d)
	}
	for _, w := range workers {
		w.init()
		go w.loop()
	}
	defer func() {
		for _, w := range workers {
			close(w.in)
		}
	}()

	totalFg := 0
	m := MaxTime
	for _, d := range e.domains {
		totalFg += d.fg
		if t := d.nextEventAt(); t < m {
			m = t
		}
	}

	var inbox []mail
	for totalFg > 0 {
		if m > deadline {
			return nil
		}
		horizon := m + e.lookahead
		if horizon < m { // overflow
			horizon = MaxTime
		}
		if deadline != MaxTime && horizon > deadline+1 {
			horizon = deadline + 1
		}

		for _, w := range workers {
			w.in <- horizon
		}
		var trap interface{}
		m = MaxTime
		inbox = inbox[:0]
		for _, w := range workers {
			res := <-w.out
			if res.trap != nil && trap == nil {
				trap = res.trap
			}
			totalFg += res.fgDelta
			if res.min < m {
				m = res.min
			}
			inbox = append(inbox, res.mail...)
		}
		if trap != nil {
			panic(trap)
		}

		// Deterministic merge: delivery order is a pure function of
		// (time, source domain, source sequence), independent of which
		// worker ran which domain when.
		sort.Slice(inbox, func(i, j int) bool {
			a, b := &inbox[i], &inbox[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		for i := range inbox {
			ml := &inbox[i]
			d := e.domains[ml.dst]
			fn := ml.fn
			d.seq++
			d.fg++
			d.events.push(event{at: ml.at, seq: d.seq, fn: func() { fn(Ctx{d}) }})
			if ml.at < m {
				m = ml.at
			}
			// The new event can only move the domain's key earlier, so a
			// sift-up in its (idle) worker's heap restores order.
			workers[int(ml.dst)%nw].siftUp(d.hpos)
			ml.fn = nil
		}
		totalFg += len(inbox)
	}

	var blocked []string
	for _, d := range e.domains {
		if len(d.live) > 0 {
			blocked = append(blocked, liveNames(d.live)...)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Now: e.Now(), Procs: blocked}
	}
	return nil
}
