// Package simtime implements a deterministic discrete-event simulation
// engine in the style of SimPy: simulated components run as cooperative
// processes (coroutines the engine resumes directly, see Proc), exactly
// one of which executes at a time. Blocking primitives — Sleep, Wait,
// Queue.Get, Resource.Acquire, Gate.Wait — hand control back to the
// engine, which advances the virtual clock to the next scheduled wakeup.
//
// Virtual time is an int64 nanosecond count starting at zero. There is no
// wall clock anywhere in the engine, so a simulation run is a pure function
// of its inputs: the same program produces the same event order and the
// same timestamps on every run.
package simtime

import (
	"fmt"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Us returns a Duration of us microseconds. Fractional microseconds are
// preserved to nanosecond resolution.
func Us(us float64) Duration { return Duration(us * 1000) }

// Ms returns a Duration of ms milliseconds.
func Ms(ms float64) Duration { return Duration(ms * 1e6) }

// Seconds returns the duration expressed in (floating-point) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros returns the duration expressed in microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis returns the duration expressed in milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3gµs", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.4gms", d.Millis())
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled engine action: either waking a process or running an
// inline callback.
//
// Events come in two flavors. Pooled events are owned by the engine: they
// are drawn from a free list in schedule and recycled when they fire, so
// steady-state scheduling allocates nothing. Intrusive events are embedded
// in a long-lived owner (a Proc's wake event, a Queue's delivery event, a
// Timer) and carry a reusable fn, making their whole schedule→fire cycle
// allocation-free.
type event struct {
	at     Time
	seq    uint64 // tie-break so equal-time events run in schedule order
	xkey   uint64 // cross-shard ordering key; 0 for ordinary local events
	fn     func() // runs inline in the engine loop; must not block
	pooled bool   // engine-owned: recycle onto the free list after firing
	inHeap bool   // double-schedule guard for intrusive events
}

// eventQueue is a 4-ary min-heap over (at, xkey, seq). Because seq is
// unique, the ordering is a strict total order and the minimum is always
// unique, so the pop sequence — and therefore the simulation — is
// independent of heap shape and arity. The 4-ary layout halves the tree
// depth of a binary heap and the hand-rolled sift loops (hole-based, no
// interface dispatch, no swaps) take heap maintenance off the hot-path
// profile.
//
// xkey exists for the sharded engine. Local events carry xkey 0 and tie-
// break on seq, the insertion order. Exchange deliveries carry a key built
// from (exchange ID, per-exchange send sequence), which (a) runs every
// cross-shard delivery at an instant after the instant's local events, and
// (b) orders simultaneous deliveries by wiring order rather than by the
// window that happened to carry them. Both rules depend only on values
// that are invariant across shard counts, which is what lets an N-shard
// run replay the 1-shard oracle byte for byte.
type eventQueue []*event

// before reports whether a orders strictly before b.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.xkey != b.xkey {
		return a.xkey < b.xkey
	}
	return a.seq < b.seq
}

func (e *Engine) pushEvent(ev *event) {
	q := append(e.pq, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !eventBefore(ev, p) {
			break
		}
		q[i] = p
		i = parent
	}
	q[i] = ev
	e.pq = q
}

func (e *Engine) popEvent() *event {
	q := e.pq
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	e.pq = q
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m, mc := c, q[c]
			for j := c + 1; j < end; j++ {
				if eventBefore(q[j], mc) {
					m, mc = j, q[j]
				}
			}
			if !eventBefore(mc, last) {
				break
			}
			q[i] = mc
			i = m
		}
		q[i] = last
	}
	return top
}

// Engine owns the virtual clock and the set of managed processes.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pq      eventQueue
	free    []*event // recycled pooled events
	nevents uint64   // events dispatched (perf accounting)
	procs   map[*Proc]struct{}
	nprocs  uint64 // procs spawned so far; Close unwinds them in spawn order
	stopped bool
	shard   int // index within a ShardedEngine; 0 for a standalone engine
}

// NewEngine returns an engine with the clock at zero and no processes.
func NewEngine() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ShardID returns the engine's index within its ShardedEngine, or 0 for a
// standalone engine. Cross-shard plumbing (simnet exchanges, the sharded
// trace recorder) uses it to pick the right per-shard lane.
func (e *Engine) ShardID() int { return e.shard }

// Events returns the number of events the engine has dispatched so far.
// It is the denominator of the events-per-second wall-clock figure the
// benchmark harness tracks across revisions.
func (e *Engine) Events() uint64 { return e.nevents }

// schedule enqueues fn to run at time at (>= now) on a pooled event.
func (e *Engine) schedule(at Time, fn func()) {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{pooled: true}
	}
	ev.fn = fn
	e.scheduleEvent(ev, at)
}

// scheduleEvent enqueues ev (whose fn is already set) to fire at time at
// (>= now). For intrusive events this is the allocation-free scheduling
// path; an event may only be in the heap once, so rescheduling before the
// previous firing is a bug the guard below turns into a panic.
func (e *Engine) scheduleEvent(ev *event, at Time) {
	if ev.inHeap {
		panic("simtime: event scheduled twice")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev.at, ev.seq, ev.xkey = at, e.seq, 0
	ev.inHeap = true
	e.pushEvent(ev)
}

// scheduleEx enqueues an exchange delivery with its shard-count-invariant
// ordering key: exchange exID's send number exSeq, firing at time at. The
// key packs (exID+1, exSeq) into 64 bits — exID+1 so every delivery sorts
// after the instant's local events (xkey 0), with 40 bits of sequence per
// exchange (≈10^12 sends, far beyond any simulated run).
func (e *Engine) scheduleEx(at Time, exID int, exSeq uint64, fn func()) {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{pooled: true}
	}
	ev.fn = fn
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev.at, ev.seq = at, e.seq
	ev.xkey = uint64(exID+1)<<40 | exSeq
	ev.inHeap = true
	e.pushEvent(ev)
}

// At schedules fn to run inline at virtual time at. fn must not block; to
// run blocking logic, spawn a process from inside fn.
func (e *Engine) At(at Time, fn func()) { e.schedule(at, fn) }

// After schedules fn to run inline d after the current time.
func (e *Engine) After(d Duration, fn func()) { e.schedule(e.now.Add(d), fn) }

// Run executes scheduled events in time order until the queue drains or
// Stop is called. It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued. It returns the virtual time when it stopped.
//
// Entering RunUntil (or Run) clears a previous Stop: Stop halts the
// current run, and the next Run/RunUntil call resumes from the queued
// events. Use Stopped between runs to observe whether the last run was
// halted.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for !e.stopped && len(e.pq) > 0 {
		ev := e.pq[0]
		if ev.at > deadline {
			e.now = deadline
			return e.now
		}
		e.dispatch(ev)
	}
	return e.now
}

// runWindow executes events with timestamps strictly below horizon,
// leaving the clock at the last executed event. It is the per-shard inner
// loop of ShardedEngine: unlike RunUntil it neither clears a pending Stop
// nor advances the clock to the horizon, so a shard's Now never outruns
// its own event stream between barriers.
func (e *Engine) runWindow(horizon Time) {
	for !e.stopped && len(e.pq) > 0 {
		ev := e.pq[0]
		if ev.at >= horizon {
			return
		}
		e.dispatch(ev)
	}
}

// dispatch pops and executes the head event ev (== e.pq[0]).
func (e *Engine) dispatch(ev *event) {
	e.popEvent()
	ev.inHeap = false
	fn := ev.fn
	// Recycle pooled events (and clear intrusive ones) before running
	// fn, so the callback may immediately reschedule.
	if ev.pooled {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	if fn == nil {
		return // cancelled
	}
	e.now = ev.at
	e.nevents++
	fn()
}

// Stop makes Run return after the current event finishes. It is safe to
// call from inside event callbacks or processes. A stopped engine is not
// dead: the next Run/RunUntil call clears the flag and resumes from the
// still-queued events.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called since the last time a run
// started.
func (e *Engine) Stopped() bool { return e.stopped }

// Timer is a re-armable one-shot callback with a pre-allocated event, the
// allocation-free alternative to Engine.After for components that arm the
// same deadline logic over and over (retransmission timers, periodic
// service). The zero value is not usable; call NewTimer. A Timer may only
// have one pending firing: re-arming while Pending panics, so owners keep
// their own state machine honest.
type Timer struct {
	eng *Engine
	ev  event
}

// NewTimer returns a timer that runs fn inline in the engine loop each time
// it fires. fn must not block.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e}
	t.ev.fn = fn
	return t
}

// ScheduleAt arms the timer to fire at virtual time at (>= now).
func (t *Timer) ScheduleAt(at Time) { t.eng.scheduleEvent(&t.ev, at) }

// ScheduleAfter arms the timer to fire d after the current time.
func (t *Timer) ScheduleAfter(d Duration) { t.ScheduleAt(t.eng.now.Add(d)) }

// Pending reports whether the timer is armed and has not fired yet.
func (t *Timer) Pending() bool { return t.ev.inHeap }

// PendingProcs returns the names of processes that have been spawned but
// have not finished, sorted. Useful in tests for deadlock diagnosis.
func (e *Engine) PendingProcs() []string {
	var names []string
	for p := range e.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
