package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bps/internal/shardtest"
)

// TestShardClassicDomainNoops pins the classic collapse: without
// EnableSharding, NewDomain hands back domain 0 and SetDomain is a
// no-op, so partition-aware model code runs unchanged on one calendar.
func TestShardClassicDomainNoops(t *testing.T) {
	e := NewEngine(1)
	if e.Sharded() {
		t.Fatal("fresh engine claims to be sharded")
	}
	if id := e.NewDomain("srv"); id != 0 {
		t.Fatalf("classic NewDomain = %d, want 0", id)
	}
	if prev := e.SetDomain(0); prev != 0 {
		t.Fatalf("classic SetDomain prev = %d, want 0", prev)
	}
	if n := e.NumDomains(); n != 1 {
		t.Fatalf("classic NumDomains = %d, want 1", n)
	}
	// Post on a single-domain engine delivers without lookahead: it is
	// plain scheduling.
	var got Time
	e.Spawn("p", func(p *Proc) {
		p.Post(0, p.Now()+Microsecond, func(c Ctx) { got = c.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != Microsecond {
		t.Fatalf("classic Post ran at %v, want %v", got, Microsecond)
	}
}

// TestShardPostDelivery checks the cross-domain mail path: a process in
// one domain posts into another, the callback runs in the destination
// domain at exactly the posted time, and Ctx.Spawn starts processes
// there.
func TestShardPostDelivery(t *testing.T) {
	e := NewEngine(1)
	e.EnableSharding(2)
	e.SetLookahead(10 * Microsecond)
	d1 := e.NewDomain("a")
	d2 := e.NewDomain("b")

	var at Time
	var inDom int
	spawned := false
	prev := e.SetDomain(d1)
	e.Spawn("sender", func(p *Proc) {
		p.Sleep(Microsecond)
		p.Post(d2, p.Now()+e.Lookahead(), func(c Ctx) {
			at, inDom = c.Now(), c.DomainID()
			c.Spawn("child", func(p2 *Proc) {
				p2.Sleep(Microsecond)
				spawned = true
			})
		})
	})
	e.SetDomain(prev)

	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Microsecond + 10*Microsecond; at != want {
		t.Fatalf("mail ran at %v, want %v", at, want)
	}
	if inDom != d2 {
		t.Fatalf("mail ran in domain %d, want %d", inDom, d2)
	}
	if !spawned {
		t.Fatal("Ctx.Spawn child never ran")
	}
}

// TestShardPostLookaheadViolation pins the conservative contract: mail
// must land at least one lookahead in the future, and a violating Post
// panics (re-raised out of Run on the engine goroutine).
func TestShardPostLookaheadViolation(t *testing.T) {
	e := NewEngine(1)
	e.EnableSharding(2)
	e.SetLookahead(10 * Microsecond)
	d1 := e.NewDomain("a")
	d2 := e.NewDomain("b")
	prev := e.SetDomain(d1)
	e.Spawn("sender", func(p *Proc) {
		p.Post(d2, p.Now()+Microsecond, func(Ctx) {}) // < lookahead
	})
	e.SetDomain(prev)
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead-violating Post did not panic")
		}
	}()
	_ = e.Run()
}

// TestShardLookaheadValidation pins the lookahead knob's contract:
// non-positive values panic, repeated calls keep the minimum, and a
// sharded multi-domain run without any lookahead panics instead of
// silently deadlocking.
func TestShardLookaheadValidation(t *testing.T) {
	e := NewEngine(1)
	e.EnableSharding(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetLookahead(0) did not panic")
			}
		}()
		e.SetLookahead(0)
	}()
	e.SetLookahead(20 * Microsecond)
	e.SetLookahead(50 * Microsecond) // larger: ignored
	if got := e.Lookahead(); got != 20*Microsecond {
		t.Fatalf("Lookahead = %v, want %v (minimum wins)", got, 20*Microsecond)
	}

	bare := NewEngine(1)
	bare.EnableSharding(2)
	bare.NewDomain("a")
	prev := bare.SetDomain(0)
	bare.Spawn("p", func(p *Proc) { p.Sleep(Microsecond) })
	bare.SetDomain(prev)
	defer func() {
		if recover() == nil {
			t.Fatal("sharded Run without lookahead did not panic")
		}
	}()
	_ = bare.Run()
}

// TestShardDeadlockAcrossDomains checks that deadlock detection unions
// blocked processes across every domain, naming them all.
func TestShardDeadlockAcrossDomains(t *testing.T) {
	e := NewEngine(1)
	e.EnableSharding(2)
	e.SetLookahead(Microsecond)
	d1 := e.NewDomain("a")
	prev := e.SetDomain(d1)
	e.Spawn("stuck-a", func(p *Proc) { p.NewFuture().Wait(p) })
	e.SetDomain(prev)
	e.Spawn("stuck-root", func(p *Proc) { p.NewFuture().Wait(p) })

	err := e.Run()
	dl, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want *DeadlockError", err)
	}
	if want := []string{"stuck-a", "stuck-root"}; !reflect.DeepEqual(dl.Procs, want) {
		t.Fatalf("deadlocked procs = %v, want %v", dl.Procs, want)
	}
	e.Shutdown()
}

// TestShardDomainAccessors covers the bookkeeping surface the model
// layers partition with.
func TestShardDomainAccessors(t *testing.T) {
	e := NewEngine(1)
	e.EnableSharding(3)
	if !e.Sharded() {
		t.Fatal("EnableSharding did not stick")
	}
	if got := e.Workers(); got != 3 {
		t.Fatalf("Workers = %d, want 3", got)
	}
	a := e.NewDomain("alpha")
	b := e.NewDomain("beta")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("NewDomain ids %d, %d: want distinct nonzero", a, b)
	}
	if got := e.NumDomains(); got != 3 {
		t.Fatalf("NumDomains = %d, want 3", got)
	}
	if got := e.DomainName(b); got != "beta" {
		t.Fatalf("DomainName(%d) = %q, want beta", b, got)
	}
	prev := e.SetDomain(a)
	if prev != 0 || e.CurrentDomain() != a {
		t.Fatalf("SetDomain: prev %d cur %d, want 0 and %d", prev, e.CurrentDomain(), a)
	}
	e.SetDomain(prev)
}

// shardTopologySignature builds a pseudo-random multi-domain program
// from seed and runs it with the given worker count, returning an
// order-sensitive log of everything observable: every mail delivery
// (destination clock and domain), each domain's event count, and the
// final clocks. The program stresses the window loop — variable-length
// sleeps, domain-local randomness, chained cross-domain posts — while
// drawing all randomness from sources that are pure functions of the
// topology, never of worker scheduling.
func shardTopologySignature(t *testing.T, seed int64, workers int) []string {
	t.Helper()
	const lookahead = 10 * Microsecond
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(seed)
	e.EnableSharding(workers)
	e.SetLookahead(lookahead)

	ndom := 2 + rng.Intn(5)
	doms := make([]int, ndom)
	for i := 1; i < ndom; i++ {
		doms[i] = e.NewDomain(fmt.Sprintf("d%d", i))
	}
	logs := make([][]string, ndom) // written only by the owning domain

	for di := 0; di < ndom; di++ {
		nproc := 1 + rng.Intn(3)
		prev := e.SetDomain(doms[di])
		for pi := 0; pi < nproc; pi++ {
			di, pi := di, pi
			rounds := 1 + rng.Intn(4)
			e.Spawn(fmt.Sprintf("d%d.p%d", di, pi), func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(Time(1+p.Rand().Intn(20)) * Microsecond)
					dst := p.Rand().Intn(ndom)
					tag := fmt.Sprintf("d%d.p%d.r%d", di, pi, r)
					p.Post(doms[dst], p.Now()+lookahead+Time(p.Rand().Intn(5))*Microsecond, func(c Ctx) {
						logs[c.DomainID()] = append(logs[c.DomainID()],
							fmt.Sprintf("%s->%d@%d", tag, c.DomainID(), c.Now()))
					})
				}
			})
		}
		e.SetDomain(prev)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	var sig []string
	for i, d := range e.domains {
		sig = append(sig, fmt.Sprintf("dom%d now=%d events=%d", i, d.now, d.nevents))
		sig = append(sig, logs[i]...)
	}
	e.Shutdown()
	return sig
}

// TestShardRandomTopologyWorkerInvariance is the property test behind
// the tentpole guarantee: for arbitrary domain topologies and process
// programs, the observable execution is a pure function of the model —
// bit-identical for every worker count.
func TestShardRandomTopologyWorkerInvariance(t *testing.T) {
	counts := shardtest.WorkerCounts(t, 2, 3, 4, 8)
	for seed := int64(1); seed <= 8; seed++ {
		base := shardTopologySignature(t, seed, 1)
		for _, w := range counts {
			if got := shardTopologySignature(t, seed, w); !reflect.DeepEqual(got, base) {
				t.Fatalf("seed %d: workers=%d diverged from workers=1\nbase: %v\ngot:  %v", seed, w, base, got)
			}
		}
	}
}
