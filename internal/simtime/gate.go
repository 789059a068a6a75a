package simtime

// Gate parks processes until a moving deadline has passed: Wait returns
// once the clock reaches the deadline, and Hold pushes it later. It models
// a serialization slot that is busy until some instant (a controller
// shard's service queue), where whoever gets through may immediately hold
// the slot again.
//
// Ordering rule. A Gate behaves exactly like the loop
//
//	for until > now { Sleep(until - now) }
//
// run by every waiter, down to the sequence numbers that loop draws: each
// parked waiter carries the (time, seq) key its Sleep would have had, and
// the gate's one intrusive event sits in the heap under its head waiter's
// key. When the event fires, the gate re-checks waiters inline in key
// order. A waiter that finds the gate open is resumed; one that finds it
// closed again (an earlier waiter passed and called Hold) is re-parked for
// the new deadline under a freshly drawn seq — the very seq its re-Sleep
// would have consumed — without resuming its proc. Before each next waiter
// the gate yields back to the heap if the heap top orders first. Every
// other event therefore keeps its seq and its place in the run, which is
// what keeps a run byte-identical to the sleep loop while the re-parks cost
// neither an event nor a proc switch.
//
// Because the deadline only moves later, parked waiters stay sorted by key
// in arrival order, so the wait list is a plain FIFO.
type Gate struct {
	eng    *Engine
	until  Time
	ws     []gateWaiter // parked procs in (at, seq) order from whead
	whead  int
	peak   int
	firing bool
	ev     event
}

type gateWaiter struct {
	p   *Proc
	at  Time
	seq uint64
}

// NewGate returns an open gate (deadline zero) owned by e.
func NewGate(e *Engine) *Gate {
	g := &Gate{eng: e}
	g.ev.fn = g.fire
	return g
}

func (g *Gate) parked() int { return len(g.ws) - g.whead }

// Peak returns the most processes ever parked on the gate at once.
func (g *Gate) Peak() int { return g.peak }

// Hold keeps the gate closed until t. The deadline only moves later;
// moving it earlier panics.
func (g *Gate) Hold(t Time) {
	if t < g.until {
		panic("simtime: Gate.Hold moves the deadline earlier")
	}
	g.until = t
}

// Wait blocks p until the clock has reached the deadline, returning at
// once (no event, no yield) when it already has.
func (g *Gate) Wait(p *Proc) {
	e := g.eng
	if g.until <= e.now {
		return
	}
	e.seq++
	g.push(gateWaiter{p: p, at: g.until, seq: e.seq})
	if n := g.parked(); n > g.peak {
		g.peak = n
	}
	if !g.firing && !g.ev.inHeap {
		g.arm()
	}
	p.block()
}

// push appends w. Under a standing herd the list never drains, so before
// append would grow the array, the live waiters slide down over the popped
// prefix once it is at least half the array.
func (g *Gate) push(w gateWaiter) {
	if len(g.ws) == cap(g.ws) && g.whead > 0 && 2*g.whead >= len(g.ws) {
		n := copy(g.ws, g.ws[g.whead:])
		clear(g.ws[n:])
		g.ws = g.ws[:n]
		g.whead = 0
	}
	g.ws = append(g.ws, w)
}

func (g *Gate) pop() gateWaiter {
	w := g.ws[g.whead]
	g.ws[g.whead] = gateWaiter{}
	g.whead++
	if g.whead == len(g.ws) {
		g.ws = g.ws[:0]
		g.whead = 0
	}
	return w
}

// arm schedules the gate event under the head waiter's key. The seq is the
// waiter's own, not a fresh one: the event stands in for that waiter's
// wakeup.
func (g *Gate) arm() {
	h := g.ws[g.whead]
	g.ev.at, g.ev.seq, g.ev.xkey = h.at, h.seq, 0
	g.ev.inHeap = true
	g.eng.pushEvent(&g.ev)
}

// fire is the gate event: serve parked waiters in key order for as long as
// they are due now and nothing in the heap orders before the next one.
func (g *Gate) fire() {
	e := g.eng
	// dispatch counted the gate event; only resumed waiters count.
	e.nevents--
	g.firing = true
	for {
		w := g.pop()
		if g.until > e.now {
			e.seq++
			g.push(gateWaiter{p: w.p, at: g.until, seq: e.seq})
		} else {
			e.nevents++
			w.p.resume()
		}
		if g.parked() == 0 || e.stopped {
			break
		}
		h := g.ws[g.whead]
		if h.at != e.now {
			break
		}
		g.ev.at, g.ev.seq = h.at, h.seq
		if len(e.pq) > 0 && eventBefore(e.pq[0], &g.ev) {
			break
		}
	}
	g.firing = false
	if g.parked() > 0 {
		g.arm()
	}
}
