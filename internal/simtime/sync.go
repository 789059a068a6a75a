package simtime

// waiter is one parked process's slot in a queue or event wait list.
// Waiters are pooled per primitive: the blocked process releases its waiter
// back to the pool when it resumes, so steady-state blocking allocates
// nothing. gen is a reuse-after-free guard — a timeout callback captured
// against an earlier incarnation of the record compares generations and
// becomes a no-op instead of corrupting the waiter's next user.
type waiter[T any] struct {
	p        *Proc
	val      T
	gen      uint32
	fired    bool
	timedOut bool
}

// waiterPool is a per-primitive free list of waiter records.
type waiterPool[T any] struct {
	free []*waiter[T]
}

func (wp *waiterPool[T]) get(p *Proc) *waiter[T] {
	if n := len(wp.free); n > 0 {
		w := wp.free[n-1]
		wp.free[n-1] = nil
		wp.free = wp.free[:n-1]
		w.p = p
		return w
	}
	return &waiter[T]{p: p}
}

// put releases w for reuse. The generation bump invalidates any timeout
// callback still holding a reference to this incarnation.
func (wp *waiterPool[T]) put(w *waiter[T]) {
	var zero T
	w.val = zero
	w.p = nil
	w.fired, w.timedOut = false, false
	w.gen++
	wp.free = append(wp.free, w)
}

// Event is a one-shot future: processes Wait on it, and a single Trigger
// wakes them all and records a value. Once triggered the event stays
// triggered, so later Waits return immediately. Use Queue for repeated
// notifications.
type Event[T any] struct {
	eng       *Engine
	triggered bool
	val       T
	waiters   []*waiter[T]
	pool      waiterPool[T]
}

// NewEvent returns an untriggered event owned by e.
func NewEvent[T any](e *Engine) *Event[T] {
	return &Event[T]{eng: e}
}

// Triggered reports whether the event has fired.
func (ev *Event[T]) Triggered() bool { return ev.triggered }

// Value returns the value the event was triggered with (zero if not yet).
func (ev *Event[T]) Value() T { return ev.val }

// Trigger fires the event with val, waking all current waiters at the
// current virtual time. Triggering an already-triggered event is a no-op.
func (ev *Event[T]) Trigger(val T) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.val = val
	for i, w := range ev.waiters {
		ev.waiters[i] = nil
		if w.fired {
			continue
		}
		w.fired = true
		w.val = val
		ev.eng.wake(w.p, ev.eng.now)
	}
	ev.waiters = ev.waiters[:0]
}

// Wait blocks p until the event triggers, returning the trigger value.
func (ev *Event[T]) Wait(p *Proc) T {
	if ev.triggered {
		return ev.val
	}
	w := ev.pool.get(p)
	ev.waiters = append(ev.waiters, w)
	p.block()
	val := w.val
	ev.pool.put(w)
	return val
}

// WaitTimeout blocks p until the event triggers or d elapses. ok is false
// on timeout. A timed-out waiter is removed from the wait list eagerly, so
// abandoned records never pile up between Triggers.
func (ev *Event[T]) WaitTimeout(p *Proc, d Duration) (val T, ok bool) {
	if ev.triggered {
		return ev.val, true
	}
	w := ev.pool.get(p)
	ev.waiters = append(ev.waiters, w)
	gen := w.gen
	eng := p.eng
	eng.schedule(eng.now.Add(d), func() {
		if w.gen != gen || w.fired {
			return // raced with Trigger, or the record was recycled
		}
		w.fired, w.timedOut = true, true
		ev.removeWaiter(w)
		eng.wake(w.p, eng.now)
	})
	p.block()
	val, timedOut := w.val, w.timedOut
	ev.pool.put(w)
	return val, !timedOut
}

// removeWaiter compacts w out of the wait list, preserving order.
func (ev *Event[T]) removeWaiter(w *waiter[T]) {
	for i, x := range ev.waiters {
		if x == w {
			copy(ev.waiters[i:], ev.waiters[i+1:])
			ev.waiters[len(ev.waiters)-1] = nil
			ev.waiters = ev.waiters[:len(ev.waiters)-1]
			return
		}
	}
}

// Queue is an unbounded FIFO channel between simulation processes. Put
// never blocks; Get blocks while the queue is empty. Items are delivered in
// insertion order and each item wakes at most one waiter.
//
// A queue has two consumption styles. Process style: a Proc calls Get and
// parks until an item arrives. Callback style: OnNext arms a function that
// receives the next item — no proc, no coroutine switch, and no event when
// the item finds the queue empty. Purely reactive components (packet
// pipelines, demultiplexers) should use the callback style; a queue must
// not mix blocked Getters and an armed callback.
type Queue[T any] struct {
	eng *Engine

	// items is a head-indexed ring: popping advances head, and the backing
	// array is reused from the start each time the queue drains, so a
	// steady-state produce/consume cycle stops allocating.
	items []T
	head  int

	waiters []*waiter[T]
	whead   int
	pool    waiterPool[T]

	cb  func(T) // armed one-shot consumer callback (nil when absent)
	svc event   // intrusive delivery event for the callback path
}

// NewQueue returns an empty queue owned by e.
func NewQueue[T any](e *Engine) *Queue[T] {
	q := &Queue[T]{eng: e}
	q.svc.fn = q.service
	return q
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

func (q *Queue[T]) pushItem(v T) { q.items = append(q.items, v) }

func (q *Queue[T]) popItem() (T, bool) {
	if q.head == len(q.items) {
		var zero T
		return zero, false
	}
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

func (q *Queue[T]) pushWaiter(w *waiter[T]) { q.waiters = append(q.waiters, w) }

func (q *Queue[T]) popWaiter() (*waiter[T], bool) {
	if q.whead == len(q.waiters) {
		return nil, false
	}
	w := q.waiters[q.whead]
	q.waiters[q.whead] = nil
	q.whead++
	if q.whead == len(q.waiters) {
		q.waiters = q.waiters[:0]
		q.whead = 0
	}
	return w, true
}

// removeWaiter compacts w out of the wait list, preserving FIFO order.
func (q *Queue[T]) removeWaiter(w *waiter[T]) {
	for i := q.whead; i < len(q.waiters); i++ {
		if q.waiters[i] != w {
			continue
		}
		copy(q.waiters[i:], q.waiters[i+1:])
		q.waiters[len(q.waiters)-1] = nil
		q.waiters = q.waiters[:len(q.waiters)-1]
		if q.whead == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.whead = 0
		}
		return
	}
}

// Put appends v and, if a process is blocked in Get, hands v to the
// longest-waiting one. If a callback is armed instead, Put disarms it and
// calls it with v before returning, when the queue is empty and no
// delivery event is pending; otherwise v joins the backlog and the
// delivery event hands items to the callback in FIFO order at the current
// instant.
func (q *Queue[T]) Put(v T) {
	for {
		w, ok := q.popWaiter()
		if !ok {
			break
		}
		if w.fired {
			continue // defensive: timed-out waiters are compacted eagerly
		}
		w.fired = true
		w.val = v
		q.eng.wake(w.p, q.eng.now)
		return
	}
	if q.cb != nil && !q.svc.inHeap && q.Len() == 0 {
		cb := q.cb
		q.cb = nil
		cb(v)
		return
	}
	q.pushItem(v)
	if q.cb != nil && !q.svc.inHeap {
		q.eng.scheduleEvent(&q.svc, q.eng.now)
	}
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	if v, ok := q.popItem(); ok {
		return v
	}
	w := q.pool.get(p)
	q.pushWaiter(w)
	p.block()
	v := w.val
	q.pool.put(w)
	return v
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	return q.popItem()
}

// GetTimeout is Get with a deadline; ok is false on timeout. Like every
// other resume path the timeout wakes the process through the engine's wake
// event rather than running it inline, and the abandoned waiter record is
// compacted out of the wait list immediately.
func (q *Queue[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	if v, ok := q.popItem(); ok {
		return v, true
	}
	w := q.pool.get(p)
	q.pushWaiter(w)
	gen := w.gen
	eng := p.eng
	eng.schedule(eng.now.Add(d), func() {
		if w.gen != gen || w.fired {
			return // raced with Put, or the record was recycled
		}
		w.fired, w.timedOut = true, true
		q.removeWaiter(w)
		eng.wake(w.p, eng.now)
	})
	p.block()
	v, timedOut := w.val, w.timedOut
	q.pool.put(w)
	return v, !timedOut
}

// OnNext arms fn as a one-shot consumer callback: the next available item
// goes to fn at the instant it is available — from inside Put when it
// finds the queue empty, through the delivery event when items are
// already buffered. The callback is consumed by the delivery; re-arm from
// inside fn — typically after draining any backlog with TryGet — to keep
// receiving. Only one callback
// may be armed at a time, and an armed queue must not also have blocked
// Getters.
func (q *Queue[T]) OnNext(fn func(T)) {
	if q.cb != nil {
		panic("simtime: Queue.OnNext: a callback is already armed")
	}
	if fn == nil {
		panic("simtime: Queue.OnNext: nil callback")
	}
	q.cb = fn
	if q.Len() > 0 && !q.svc.inHeap {
		q.eng.scheduleEvent(&q.svc, q.eng.now)
	}
}

// service is the queue's intrusive delivery event: hand one item to the
// armed callback.
func (q *Queue[T]) service() {
	cb := q.cb
	if cb == nil {
		return // disarmed after the delivery was scheduled
	}
	v, ok := q.popItem()
	if !ok {
		return // consumed by a TryGet after the delivery was scheduled
	}
	q.cb = nil
	cb(v)
}

// Resource is a counting semaphore with FIFO admission, used to model
// contended capacity such as NIC processing slots or CPU cores.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []*Proc
	whead    int
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("simtime: resource capacity must be >= 1")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire blocks p until a unit of capacity is available and claims it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.block()
	// Whoever released on our behalf already counted us in.
}

// Release returns a unit of capacity, waking the longest waiter if any.
func (r *Resource) Release() {
	if r.whead < len(r.waiters) {
		p := r.waiters[r.whead]
		r.waiters[r.whead] = nil
		r.whead++
		if r.whead == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.whead = 0
		}
		// Capacity transfers directly to the waiter; inUse is unchanged.
		r.eng.wake(p, r.eng.now)
		return
	}
	r.inUse--
	if r.inUse < 0 {
		panic("simtime: Release without Acquire")
	}
}

// InUse returns the number of currently-held units.
func (r *Resource) InUse() int { return r.inUse }
