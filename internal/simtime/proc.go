//go:build go1.23

package simtime

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
)

// Proc is a managed simulation process. All blocking calls take the Proc so
// that the engine knows which process is yielding.
//
// A proc is a coroutine (iter.Pull): the engine resumes it with next, and
// the proc hands control back by yielding, so a wakeup is one direct
// coroutine switch with no scheduler round trip and no channel handoff.
// Exactly one proc or callback runs at a time, on whichever goroutine is
// driving the engine.
type Proc struct {
	eng   *Engine
	name  string
	id    uint64 // spawn order
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// wakeEv is the proc's intrusive wake event. A parked proc has exactly
	// one pending wakeup, so a single pre-allocated event (with a reusable
	// resume closure) makes Sleep and every queue/event/resource wakeup
	// allocation-free in steady state.
	wakeEv event
	// sleepNext is the proc's one post-wake step: when set, the next wake
	// re-parks the proc for sleepFor instead of resuming it. It is how a
	// blocking call fuses a trailing Sleep (Queue.GetThenSleep,
	// Resource.Use) without a coroutine switch in between; see resume.
	sleepNext bool
	sleepFor  Duration
}

// errStopped unwinds a parked proc's stack when Engine.Close stops it.
var errStopped = errors.New("simtime: proc stopped by Engine.Close")

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns this process.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn creates a process running fn, started at the current virtual time
// (after already-scheduled events for this instant).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nprocs++
	p := &Proc{eng: e, name: name, id: e.nprocs}
	p.wakeEv.fn = p.resume
	e.procs[p] = struct{}{}
	e.schedule(e.now, func() {
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer p.exit()
			fn(p)
		})
		p.resume()
	})
	return p
}

// resume runs p until it blocks again or finishes. A pending post-wake
// step instead reschedules the proc's own wake event d later: that draws,
// at the same instant, the very seq the proc's first Sleep(d) after waking
// would have drawn, so the schedule is the one the unfused call makes. The
// event still counts in dispatch; only the coroutine switch is saved.
func (p *Proc) resume() {
	if p.sleepNext {
		p.sleepNext = false
		p.eng.wake(p, p.eng.now.Add(p.sleepFor))
		return
	}
	p.next()
}

// blockThenSleep parks p like block and, once woken, keeps it parked for d
// more (Sleep(d), so a zero d still yields once) before it continues.
func (p *Proc) blockThenSleep(d Duration) {
	p.sleepNext, p.sleepFor = true, d
	p.block()
}

// exit is the proc's root defer. It retires the proc and swallows the
// Close sentinel; any other panic is re-raised with the proc's name and
// stack, because iter.Pull re-panics it on the engine's goroutine, whose
// stack no longer shows where the proc failed.
func (p *Proc) exit() {
	delete(p.eng.procs, p)
	if r := recover(); r != nil && r != errStopped {
		panic(fmt.Sprintf("simtime: proc %q panicked: %v\n%s", p.name, r, debug.Stack()))
	}
}

// block parks the calling process until something resumes it. It must
// only be called from within p while p is running. When Close stops the
// proc instead, block unwinds p's stack.
func (p *Proc) block() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// wake schedules p to resume at time at, reusing the proc's intrusive wake
// event — no allocation.
func (e *Engine) wake(p *Proc, at Time) {
	e.scheduleEvent(&p.wakeEv, at)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		// Still yield so that equal-time events interleave fairly.
		p.eng.wake(p, p.eng.now)
		p.block()
		return
	}
	p.eng.wake(p, p.eng.now.Add(d))
	p.block()
}

// Yield cedes the processor to other events scheduled at the current
// instant and then continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Close tears the engine down: every unfinished proc is stopped, in spawn
// order, by making its pending blocking call unwind (deferred functions
// run, the proc's coroutine exits), and every pending event is dropped.
// Without Close a proc still parked at the end of a run keeps its
// coroutine, and everything it references, alive. Close must be called
// from outside the simulation, and the engine must not be run afterwards.
func (e *Engine) Close() {
	ps := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	for _, p := range ps {
		if p.stop != nil {
			p.stop()
		}
	}
	clear(e.procs)
	clear(e.pq)
	e.pq, e.free = nil, nil
}
