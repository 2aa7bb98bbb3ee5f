//go:build go1.23

// The process hand-off. Each process body runs as an iter.Pull
// coroutine: unpark and park switch directly between the dispatch loop
// and the process, with no channel operation and no trip through the Go
// scheduler. The build constraint raises this file's language version to
// go1.23 for iter.Pull while go.mod stays at go 1.22, which modules that
// replace bps with a local checkout (perfbench) still declare.

package sim

import "iter"

// start runs p's body as a coroutine until it first parks or ends. It is
// the body of p's start event.
func (d *domain) start(p *Proc, body func(*Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// A Shutdown kill unwinds silently; real panics from the
			// simulation program are trapped here and re-raised by
			// unpark on the dispatching goroutine, inside Run.
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					d.trap = r
				}
			}
		}()
		body(p)
	})
	d.unpark(p)
}

// park suspends the calling process and returns control to its domain's
// dispatch loop. The process stays suspended until some event callback
// calls unpark, or Engine.Shutdown kills it.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// unpark transfers control from the dispatch loop to process p and
// returns when p parks again or terminates. It must be called only from
// an event callback (dispatch context), never from another process.
// When the body has ended, unpark retires p and re-raises any panic the
// body trapped.
func (d *domain) unpark(p *Proc) {
	if _, ok := p.next(); ok {
		return
	}
	delete(d.live, p)
	delete(d.procs, p)
	if r := d.trap; r != nil {
		d.trap = nil
		panic(r)
	}
	if tr := d.eng.tracer; tr != nil && !d.eng.shardingOn {
		tr.ProcEnded(p)
	}
}
