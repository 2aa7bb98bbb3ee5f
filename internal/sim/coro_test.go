package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"bps/internal/shardtest"
)

// procLog is a Tracer that records the process lifecycle hooks in the
// order the engine fires them.
type procLog struct{ seq []string }

func (l *procLog) EventDispatched(Time, uint64)          {}
func (l *procLog) ProcStarted(p *Proc)                   { l.seq = append(l.seq, "start "+p.Name()) }
func (l *procLog) ProcEnded(p *Proc)                     { l.seq = append(l.seq, "end "+p.Name()) }
func (l *procLog) ResourceQueued(*Resource, *Proc, int)  {}
func (l *procLog) ResourceAcquired(*Resource, int, Time) {}
func (l *procLog) ResourceReleased(*Resource, int)       {}

// TestProcEndedWhileOthersParked pins the lifecycle hooks around a
// process that ends while others stay parked: each body that returns
// fires ProcEnded exactly once, at the moment it returns, and a daemon
// that Shutdown unwinds never does.
func TestProcEndedWhileOthersParked(t *testing.T) {
	e := NewEngine(1)
	log := &procLog{}
	e.SetTracer(log)
	q := e.NewQueue()
	f := e.NewFuture()
	e.SpawnDaemon("daemon", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		f.Wait(p)
		p.Sleep(Millisecond)
	})
	e.Spawn("quick", func(p *Proc) { p.Sleep(Millisecond) })
	e.Spawn("completer", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		q.Put(1)
		f.Complete()
	})
	e.Spawn("instant", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	want := []string{
		"start daemon", "start waiter", "start quick", "start completer", "start instant",
		"end instant", "end quick", "end completer", "end waiter",
	}
	if !reflect.DeepEqual(log.seq, want) {
		t.Fatalf("lifecycle hooks:\n got %q\nwant %q", log.seq, want)
	}
	if len(e.procs) != 0 || len(e.live) != 0 {
		t.Fatalf("after Shutdown: %d procs, %d live", len(e.procs), len(e.live))
	}
}

var errBoom = errors.New("boom")

// panickingEngine builds an engine (sharded with the given worker count,
// classic when workers is 0) in which every domain holds a parked
// daemon, a process stuck on a future and a sleeper that is mid-loop
// when, 5µs in, a process of the last domain panics with errBoom.
func panickingEngine(workers int) *Engine {
	e := NewEngine(1)
	if workers > 0 {
		e.EnableSharding(workers)
		e.SetLookahead(10 * Microsecond)
		e.NewDomain("a")
		e.NewDomain("b")
	}
	for id := 0; id < e.NumDomains(); id++ {
		e.SetDomain(id)
		q := e.NewQueue()
		e.SpawnDaemon("daemon", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		e.Spawn("stuck", func(p *Proc) { p.NewFuture().Wait(p) })
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		panic(errBoom)
	})
	e.SetDomain(0)
	return e
}

// runRecovering runs e and returns the value Run panicked with (nil if
// it returned).
func runRecovering(e *Engine) (r any) {
	defer func() { r = recover() }()
	_ = e.Run()
	return nil
}

// TestShardProcPanicPropagates checks that a panic in a process body
// inside a sharded window comes out of Run carrying its original value.
func TestShardProcPanicPropagates(t *testing.T) {
	for _, w := range shardtest.WorkerCounts(t, 2, 3, 4, 8) {
		e := panickingEngine(w)
		if r := runRecovering(e); r != errBoom {
			t.Fatalf("workers=%d: Run panicked with %v, want %v", w, r, errBoom)
		}
		e.Shutdown()
	}
}

// TestShutdownAfterRunPanic repeats a panicking run, classic and with
// two shard workers, and requires Shutdown to return and leave no
// process behind in any domain, within TestShutdownUnwindsDaemons'
// goroutine bound.
func TestShutdownAfterRunPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		for _, w := range []int{0, 2} {
			e := panickingEngine(w)
			if r := runRecovering(e); r != errBoom {
				t.Fatalf("workers=%d: Run panicked with %v, want %v", w, r, errBoom)
			}
			e.Shutdown()
			for _, d := range e.domains {
				if len(d.procs) != 0 {
					t.Fatalf("workers=%d: domain %d keeps %d procs after Shutdown", w, d.id, len(d.procs))
				}
			}
		}
	}
	runtime.GC()
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Fatalf("goroutines grew from %d to %d despite Shutdown", before, after)
	}
}
