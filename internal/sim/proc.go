package sim

import "math/rand"

// Proc is a simulation process: a Go function run as a coroutine of its
// domain's dispatch loop (see coro.go). At any instant either the
// dispatch loop or exactly one of its processes is executing; control
// transfers happen only at park points (Sleep, Future.Wait,
// Resource.Acquire, Queue ops), each a direct coroutine switch that
// bypasses the Go scheduler. On a classic engine there is exactly one
// domain, so this is the engine-wide single-runner guarantee; on a
// sharded engine processes of different domains run concurrently but
// never touch each other's state except through Proc.Post.
//
// A Proc must not be shared across goroutines and must only be used by the
// body function it was created for.
type Proc struct {
	eng  *Engine
	dom  *domain
	name string
	ctx  any // current request context (see SetCtx)

	// next resumes the process until it parks (ok) or its body ends
	// (!ok); stop unwinds it while parked; yield, called from the body,
	// parks it. The start event sets all three, so a nil stop marks a
	// process that never started.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// live is non-nil for a detached live-measurement process (see
	// LiveExec): the proc runs on an ordinary goroutine against a
	// pluggable clock instead of a domain's event loop. All event-loop
	// facilities (Spawn, At, futures) are unavailable in that mode.
	live *liveState
}

// killed is the sentinel panic value that unwinds a process during
// Engine.Shutdown.
type killed struct{}

// Engine returns the engine the process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// DomainID returns the id of the domain the process belongs to (0 on a
// classic engine and for detached live processes).
func (p *Proc) DomainID() int {
	if p.live != nil {
		return 0
	}
	return p.dom.id
}

// Ctx returns the process's current request context (nil when idle).
// Layers install the in-flight request here so components lower in the
// stack — and cross-cutting concerns like trace-span tagging — can see
// which logical access they are serving without every call signature
// threading it through.
func (p *Proc) Ctx() any { return p.ctx }

// SetCtx installs v as the process's request context. Callers save the
// previous value and restore it when their request completes, so nested
// requests unwind correctly.
func (p *Proc) SetCtx(v any) { p.ctx = v }

// Now returns the current time of the process's domain — simulated time
// for an engine-driven process, the live clock's time for a detached one.
func (p *Proc) Now() Time {
	if p.live != nil {
		return p.live.clock.Now()
	}
	return p.dom.now
}

// Rand returns the deterministic random source of the process's domain.
// Runtime code must draw randomness through here (not Engine.Rand) so
// that a domain's random stream stays independent of other domains.
// Detached live processes own a private RNG, so concurrent workers never
// share one stream.
func (p *Proc) Rand() *rand.Rand {
	if p.live != nil {
		return p.live.rng
	}
	return p.dom.Rand()
}

// NextRequestID returns a fresh request identifier from the process's
// domain (see Engine.NextRequestID). Detached live processes draw from
// their LiveExec's atomic counter.
func (p *Proc) NextRequestID() uint64 {
	if p.live != nil {
		return p.live.exec.ids.Add(1)
	}
	return p.dom.nextRequestID()
}

// NewFuture returns an incomplete Future bound to the process's domain.
func (p *Proc) NewFuture() *Future {
	if p.live != nil {
		panic("sim: futures are not available on a detached live proc")
	}
	return &Future{dom: p.dom}
}

// Spawn creates a process in the caller's domain that begins executing
// body at the caller's current simulated time. Runtime code must spawn
// through here (not Engine.Spawn, whose cursor is a construction-time
// concept).
func (p *Proc) Spawn(name string, body func(*Proc)) *Proc {
	if p.live != nil {
		panic("sim: Spawn is not available on a detached live proc")
	}
	return p.dom.spawn(p.dom.now, name, body, false)
}

// Spawn creates a process in the construction-cursor domain that begins
// executing body at the current simulated time (after already-scheduled
// events at that time). It may be called before Run or from simulation
// context of that domain.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	return e.cur.spawn(e.cur.now, name, body, false)
}

// SpawnAt creates a process that begins executing body at absolute time t.
func (e *Engine) SpawnAt(t Time, name string, body func(*Proc)) *Proc {
	return e.cur.spawn(t, name, body, false)
}

// SpawnDaemon creates an infrastructure process (e.g. a server worker
// loop) that is expected to block forever once the workload drains: it is
// excluded from deadlock detection. It remains parked when the simulation
// ends, until Engine.Shutdown unwinds it.
func (e *Engine) SpawnDaemon(name string, body func(*Proc)) *Proc {
	return e.cur.spawn(e.cur.now, name, body, true)
}

func (d *domain) spawn(t Time, name string, body func(*Proc), daemon bool) *Proc {
	e := d.eng
	p := &Proc{eng: e, dom: d, name: name}
	if !daemon {
		d.live[p] = struct{}{}
	}
	d.procs[p] = struct{}{}
	d.schedule(t, func() {
		if tr := e.tracer; tr != nil && !e.shardingOn {
			tr.ProcStarted(p)
		}
		d.start(p, body)
	}, false)
	return p
}

// At schedules fn as a foreground event at absolute time t in p's
// domain. It is the process-scoped counterpart of Engine.At: the event
// runs on p's own calendar, so it is safe (and deterministic) in
// sharded runs where the engine-level cursor is construction-only.
func (p *Proc) At(t Time, fn func()) {
	if p.live != nil {
		panic("sim: At is not available on a detached live proc")
	}
	p.dom.schedule(t, fn, false)
}

// After schedules fn d nanoseconds from now in p's domain (see At).
func (p *Proc) After(d Time, fn func()) {
	if p.live != nil {
		panic("sim: After is not available on a detached live proc")
	}
	p.dom.schedule(p.dom.now+d, fn, false)
}

// Sleep suspends the process for d simulated nanoseconds. Zero d yields to
// other events scheduled at the current time. On a detached live proc the
// call maps onto the live clock's Sleep: real elapsed time under a wall
// clock, a cursor advance under a virtual one.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.live != nil {
		p.live.clock.Sleep(d)
		return
	}
	dom := p.dom
	dom.scheduleWake(dom.now+d, p, false)
	p.park()
}

// Future is a one-shot completion that processes can wait on. Construct
// with Engine.NewFuture (construction-cursor domain) or Proc.NewFuture.
// All parties to a future — completer and waiters — must belong to its
// domain; cross-domain completion goes through Proc.Post to an event in
// the waiter's domain.
type Future struct {
	dom     *domain
	done    bool
	when    Time
	waiters []*Proc

	// onComplete callbacks run synchronously inside Complete, after the
	// waiters have been scheduled. WaitTimeout uses them to observe
	// completion without registering p as a plain waiter, so completion
	// and timeout can never both wake the same process.
	onComplete []func()
}

// NewFuture returns an incomplete Future bound to the construction-cursor
// domain.
func (e *Engine) NewFuture() *Future { return &Future{dom: e.cur} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// When returns the time the future completed (valid only if Done).
func (f *Future) When() Time { return f.when }

// Complete marks the future done and wakes all waiters. Completing twice
// panics: completion is a one-shot protocol and a double completion always
// indicates a bug in the simulation program.
func (f *Future) Complete() {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.when = f.dom.now
	for _, p := range f.waiters {
		p.dom.wake(p)
	}
	f.waiters = nil
	for _, fn := range f.onComplete {
		fn()
	}
	f.onComplete = nil
}

// Wait suspends p until the future completes. Returns immediately if it
// already has.
func (f *Future) Wait(p *Proc) {
	if f.done {
		return
	}
	f.waiters = append(f.waiters, p)
	p.park()
}

// WaitTimeout suspends p until the future completes or d nanoseconds
// elapse, whichever comes first. It reports whether the future completed
// within the window. On timeout the future is left untouched: a later
// Complete still runs (and wakes any other waiters) but no longer
// concerns p.
//
// The timeout timer is a foreground event: a wait on a future that will
// never complete (a dead server's reply) must still count as pending
// work, or the engine would report a spurious deadlock once the rest of
// the foreground calendar drains. The cost is that the engine clock runs
// to the timer's expiry even when the future completes first.
func (f *Future) WaitTimeout(p *Proc, d Time) bool {
	if f.done {
		return true
	}
	if d < 0 {
		panic("sim: negative timeout")
	}
	dom := p.dom
	// settled flips synchronously when completion or the timer fires
	// first, so exactly one of them schedules the wake for p.
	settled, completed := false, false
	fire := func(ok bool) {
		if settled {
			return
		}
		settled = true
		completed = ok
		dom.wake(p)
	}
	f.onComplete = append(f.onComplete, func() { fire(true) })
	dom.schedule(dom.now+d, func() { fire(false) }, false)
	p.park()
	return completed
}

// WaitAll suspends p until every future in fs has completed.
func WaitAll(p *Proc, fs ...*Future) {
	for _, f := range fs {
		f.Wait(p)
	}
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but for
// simulated processes. As with Future, all parties must belong to one
// domain.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// NewWaitGroup returns a WaitGroup with a zero count.
func (e *Engine) NewWaitGroup() *WaitGroup { return &WaitGroup{} }

// NewWaitGroup returns a WaitGroup with a zero count.
func (p *Proc) NewWaitGroup() *WaitGroup { return &WaitGroup{} }

// Add increments the counter by k.
func (w *WaitGroup) Add(k int) {
	w.n += k
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.release()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

func (w *WaitGroup) release() {
	for _, p := range w.waiters {
		p.dom.wake(p)
	}
	w.waiters = nil
}

// Wait suspends p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park()
}
