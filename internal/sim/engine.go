package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// event is a scheduled entry in the event calendar. Exactly one of fn
// and p is set: fn is an ordinary callback, while p marks a process
// wake-up that the dispatch loop resumes directly — the common
// Sleep/Resource path pays no closure allocation per wake.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same time
	fn  func()
	p   *Proc
	bg  bool // background events do not keep the simulation alive
}

// before reports whether ev fires before other in calendar order
// (time, then FIFO sequence).
func (ev *event) before(other *event) bool {
	if ev.at != other.at {
		return ev.at < other.at
	}
	return ev.seq < other.seq
}

// eventQueue is a 4-ary min-heap over concrete event values, ordered by
// (at, seq). It replaces container/heap: the wider fan-out halves the
// tree depth of the sift-down that dominates pop, and the monomorphic
// element type removes the interface{} boxing (one allocation per
// heap.Push) and the Less/Swap indirection of the standard library
// interface.
type eventQueue []event

// push appends ev and sifts it up to its heap position.
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release fn/p references for GC
	h = h[:n]
	*q = h
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// domain is one sequential partition of a simulation: an event calendar
// with its own clock, FIFO sequence, RNG, request-ID space, and process
// set. A classic (unsharded) engine is exactly one domain — Engine
// embeds it, so the single-calendar hot path pays no indirection. A
// sharded engine holds many domains that execute concurrently inside
// conservative lookahead windows (see shard.go) and interact only via
// Proc.Post mailboxes.
type domain struct {
	eng  *Engine
	id   int
	name string

	now     Time
	events  eventQueue
	seq     uint64
	nevents uint64
	fg      int // scheduled foreground events still in the calendar

	// live tracks spawned processes that have not yet terminated, so that
	// Run can detect deadlock (live procs but an empty calendar).
	live map[*Proc]struct{}

	// procs tracks every unfinished process (including daemons), so
	// Shutdown can unwind parked ones.
	procs map[*Proc]struct{}

	// trap carries a panic raised in a process body out of its
	// coroutine to the dispatch loop, where unpark re-panics inside Run —
	// so simulation bugs surface on the caller's stack.
	trap interface{}

	// rng is created lazily from rngSeed (except for domain 0, which is
	// seeded eagerly at NewEngine): at 10^5 client domains an eager
	// math/rand state per domain would dominate the engine's footprint.
	rng     *rand.Rand
	rngSeed int64

	// nextReq is the last request identifier handed out by NextRequestID
	// (namespaced by domain id; see nextRequestID).
	nextReq uint64

	// outbox stages cross-domain mail posted during the current window;
	// outSeq is the per-domain FIFO tie-break that, with the domain id,
	// makes the merge order deterministic. hpos is the domain's index in
	// its shard worker's scheduling heap.
	outbox []mail
	outSeq uint64
	hpos   int
}

func (d *domain) schedule(t Time, fn func(), bg bool) {
	if t < d.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, d.now))
	}
	d.seq++
	if !bg {
		d.fg++
	}
	d.events.push(event{at: t, seq: d.seq, fn: fn, bg: bg})
}

// scheduleWake schedules parked process p to be resumed at absolute time
// t. The calendar stores the proc pointer itself, so the ubiquitous
// Sleep/wake path allocates no wrapper closure.
func (d *domain) scheduleWake(t Time, p *Proc, bg bool) {
	if t < d.now {
		panic(fmt.Sprintf("sim: scheduling wake at %v before now %v", t, d.now))
	}
	d.seq++
	if !bg {
		d.fg++
	}
	d.events.push(event{at: t, seq: d.seq, p: p, bg: bg})
}

// wake schedules p to be resumed at the domain's current time, preserving
// FIFO order with other wakes. It must only be called while p's domain is
// the executing one (the same-domain discipline every blocking primitive
// already follows).
func (d *domain) wake(p *Proc) {
	d.scheduleWake(d.now, p, false)
}

// Rand returns the domain's deterministic random source, creating it on
// first use.
func (d *domain) Rand() *rand.Rand {
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.rngSeed))
	}
	return d.rng
}

// nextRequestID hands out the next request identifier. Domain 0 keeps
// the historical engine-wide sequence; other domains namespace their
// counter with the domain id so concurrent domains never collide and the
// ids stay independent of shard-worker interleaving.
func (d *domain) nextRequestID() uint64 {
	d.nextReq++
	if d.id == 0 {
		return d.nextReq
	}
	return uint64(d.id)<<40 | d.nextReq
}

// nextEventAt returns the time of the domain's earliest pending event,
// or MaxTime when the calendar is empty.
func (d *domain) nextEventAt() Time {
	if len(d.events) == 0 {
		return MaxTime
	}
	return d.events[0].at
}

// runTo dispatches every event strictly before horizon. It is the
// sharded window body: no tracer hooks (engine tracer hooks are a
// classic-mode feature), no foreground-drain check (that is global
// across domains and enforced by the coordinator between windows).
func (d *domain) runTo(horizon Time) {
	for len(d.events) > 0 && d.events[0].at < horizon {
		ev := d.events.pop()
		if !ev.bg {
			d.fg--
		}
		d.now = ev.at
		d.nevents++
		if ev.p != nil {
			d.unpark(ev.p)
		} else {
			ev.fn()
		}
	}
}

// Engine is a deterministic discrete-event simulation engine.
//
// The zero value is not usable; construct with NewEngine. All methods must
// be called either before Run, from inside an event callback, or from a
// running Proc — the engine enforces single-threaded execution per domain,
// so no additional locking is required by users. Distinct engines are fully
// independent: programs may run many of them concurrently on different
// goroutines (one goroutine driving each), which is how the experiment
// runner parallelizes sweeps.
//
// An engine is classically one event calendar. With EnableSharding, model
// construction may partition the simulation into domains (NewDomain /
// SetDomain); Run then executes domains concurrently under conservative
// lookahead windows while remaining bit-for-bit deterministic for any
// worker count. Engine embeds domain 0, so the classic path accesses its
// calendar fields directly with no extra indirection.
type Engine struct {
	domain // domain 0: the root (and, classically, only) calendar

	// tracer, when non-nil, observes event dispatch, process lifecycle,
	// and resource admission in classic mode. See Tracer. Sharded runs
	// skip engine-level hooks (domains dispatch concurrently); the
	// observability layer's own counters remain available.
	tracer Tracer

	seed       int64
	domains    []*domain
	cur        *domain // construction cursor for Spawn/NewResource/At
	shardingOn bool
	workers    int
	lookahead  Time
}

// NewEngine returns an engine with simulated time 0 and an RNG seeded with
// seed. Two engines with the same seed executing the same program produce
// identical schedules.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed}
	e.domain.eng = e
	e.domain.live = make(map[*Proc]struct{})
	e.domain.procs = make(map[*Proc]struct{})
	e.domain.rngSeed = seed
	e.domain.rng = rand.New(rand.NewSource(seed))
	e.domains = []*domain{&e.domain}
	e.cur = &e.domain
	return e
}

// Shutdown unwinds every parked process (daemon worker loops,
// deadlocked processes) after the simulation has finished, so that
// programs running many simulations do not accumulate blocked
// coroutines. It must be called after Run/RunUntil has returned (or
// panicked), from the same goroutine; the engine must not be used
// afterwards.
func (e *Engine) Shutdown() {
	for _, d := range e.domains {
		for p := range d.procs {
			// A nil stop means the start event never fired (RunUntil
			// stopped early): there is nothing to unwind.
			if p.stop != nil {
				p.stop() // park() panics with killed{}
			}
			delete(d.procs, p)
			delete(d.live, p)
		}
	}
}

// Now returns the current simulated time: the clock of the root domain
// classically, or the furthest domain clock on a sharded engine (which
// after Run is the simulation's end time). During a sharded run model
// code must use Proc.Now, which reads its own domain's clock.
func (e *Engine) Now() Time {
	if len(e.domains) == 1 {
		return e.domain.now
	}
	var max Time
	for _, d := range e.domains {
		if d.now > max {
			max = d.now
		}
	}
	return max
}

// NextRequestID returns a fresh nonzero request identifier from the
// construction-cursor domain (domain 0 classically). IDs are strictly
// increasing per domain in allocation order, which each domain's
// serialized execution makes deterministic. Runtime code holding a Proc
// should prefer Proc.NextRequestID.
func (e *Engine) NextRequestID() uint64 {
	return e.cur.nextRequestID()
}

// Events returns the number of events executed so far, across all
// domains.
func (e *Engine) Events() uint64 {
	if len(e.domains) == 1 {
		return e.domain.nevents
	}
	var n uint64
	for _, d := range e.domains {
		n += d.nevents
	}
	return n
}

// Rand returns the deterministic random source of the construction-cursor
// domain (domain 0 classically). It must only be used from simulation
// context of that domain; runtime code holding a Proc should prefer
// Proc.Rand.
func (e *Engine) Rand() *rand.Rand { return e.cur.Rand() }

// At schedules fn to run at absolute simulated time t in the
// construction-cursor domain. Scheduling in the past is an error in the
// simulation program and panics.
func (e *Engine) At(t Time, fn func()) { e.cur.schedule(t, fn, false) }

// After schedules fn to run d nanoseconds from now in the
// construction-cursor domain. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.cur.schedule(e.cur.now+d, fn, false) }

// DeadlockError reports that processes remained blocked with no scheduled
// events to wake them.
type DeadlockError struct {
	Now   Time
	Procs []string // names of blocked processes, sorted
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es) %v", d.Now, len(d.Procs), d.Procs)
}

// Run executes events until the calendar is empty. It returns a
// *DeadlockError if live processes remain blocked afterwards, nil
// otherwise. Run must be called exactly once on the engine goroutine.
func (e *Engine) Run() error { return e.RunUntil(MaxTime) }

// RunUntil executes events with time ≤ deadline. Events beyond the
// deadline remain in the calendar, as do background events pending once
// the last foreground event has run. It returns a *DeadlockError if the
// foreground calendar drains while processes are still blocked.
//
// The tracer is latched once at entry (SetTracer documents it must be
// called outside a running simulation), keeping the dispatch loop free
// of per-event field loads.
func (e *Engine) RunUntil(deadline Time) error {
	if len(e.domains) > 1 {
		return e.runSharded(deadline)
	}
	tracer := e.tracer
	d := &e.domain
	for d.fg > 0 {
		if d.events[0].at > deadline {
			return nil
		}
		ev := d.events.pop()
		if !ev.bg {
			d.fg--
		}
		d.now = ev.at
		d.nevents++
		if tracer != nil {
			tracer.EventDispatched(d.now, d.nevents)
		}
		if ev.p != nil {
			d.unpark(ev.p)
		} else {
			ev.fn()
		}
	}
	if len(d.live) > 0 {
		return &DeadlockError{Now: d.now, Procs: liveNames(d.live)}
	}
	return nil
}

func liveNames(live map[*Proc]struct{}) []string {
	names := make([]string, 0, len(live))
	for p := range live {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
