// Package virtio models the paravirtual command transport between a
// frontend driver in a VM and a backend driver on the host (Appendix A of
// the MasQ paper): the guest enqueues a command into a virtqueue and kicks
// (a VM exit), the backend dequeues, processes and responds, and an
// injected interrupt resumes the guest.
//
// The cost split is calibrated so one round trip is ~20 µs, the figure the
// paper measured and used to derive Table 1's "w/ virtio" column.
//
// A Ring is typed by its request and response, and recycles its call
// records, so a warmed-up round trip allocates nothing. The kick and the
// interrupt are scheduled callbacks and the backend's dequeue and service
// cost are one Queue.GetThenSleep: the guest parks once per round trip,
// and the event schedule is the one a guest sleeping through its kick and
// a backend sleeping after each dequeue would make.
package virtio

import (
	"masq/internal/simtime"
	"masq/internal/trace"
)

// Params are the per-leg costs of a virtqueue round trip.
type Params struct {
	KickCost simtime.Duration // guest: descriptor setup + kick + VM exit
	HostProc simtime.Duration // backend: wakeup and dequeue
	IRQCost  simtime.Duration // interrupt injection + guest handler
}

// DefaultParams yields the paper's ~20 µs guest↔host round trip.
func DefaultParams() Params {
	return Params{
		KickCost: simtime.Us(8),
		HostProc: simtime.Us(4),
		IRQCost:  simtime.Us(8),
	}
}

// RTT is the total round-trip overhead excluding handler work.
func (p Params) RTT() simtime.Duration { return p.KickCost + p.HostProc + p.IRQCost }

// call is one in-flight batch of requests, drawn from the ring's free
// list. inv carries the guest's active trace invocation across the proc
// hop so host-side spans attribute to the right verb call under
// concurrent setups.
type call[Req, Resp any] struct {
	reqs      []Req
	resps     []Resp
	inv       int
	done      *simtime.Queue[struct{}] // the guest parks here until the IRQ
	kick, irq func()                   // hand the record to the backend; wake the guest
}

// Ring is an RPC-style virtqueue pair (request + response).
type Ring[Req, Resp any] struct {
	P Params

	// Rec, when set, records the three transport legs of each round trip
	// as virtio-layer spans ("kick", "ring-service", "irq"). Nil is free.
	Rec *trace.Recorder

	eng  *simtime.Engine
	reqs *simtime.Queue[*call[Req, Resp]]
	free []*call[Req, Resp]
}

// NewRing creates a ring; call Serve on the host side before issuing Calls.
func NewRing[Req, Resp any](eng *simtime.Engine, p Params) *Ring[Req, Resp] {
	return &Ring[Req, Resp]{P: p, eng: eng, reqs: simtime.NewQueue[*call[Req, Resp]](eng)}
}

// Call issues one command from the guest and blocks until the backend's
// response arrives, paying the full virtqueue round trip.
func (r *Ring[Req, Resp]) Call(p *simtime.Proc, req Req) Resp {
	c := r.roundTrip(p, req)
	resp := c.resps[0]
	r.recycle(c)
	return resp
}

// CallBatch issues several commands under a single kick and a single
// interrupt (the virtio batching ablation). The backend handler still runs
// once per command.
func (r *Ring[Req, Resp]) CallBatch(p *simtime.Proc, reqs []Req) []Resp {
	c := r.roundTrip(p, reqs...)
	resps := append([]Resp(nil), c.resps...)
	r.recycle(c)
	return resps
}

// roundTrip takes a call record, schedules the kick as a callback that
// hands it to the backend KickCost from now — the slot a guest
// Sleep(KickCost) would have woken in — and parks the guest until the
// interrupt.
func (r *Ring[Req, Resp]) roundTrip(p *simtime.Proc, reqs ...Req) *call[Req, Resp] {
	var c *call[Req, Resp]
	if n := len(r.free); n > 0 {
		c, r.free = r.free[n-1], r.free[:n-1]
	} else {
		c = &call[Req, Resp]{done: simtime.NewQueue[struct{}](r.eng)}
		c.kick = func() { r.reqs.Put(c) }
		c.irq = func() { c.done.Put(struct{}{}) }
	}
	c.reqs = append(c.reqs, reqs...)
	now := p.Now()
	r.Rec.Interval(p, trace.LayerVirtio, "kick", now, now.Add(r.P.KickCost))
	c.inv = r.Rec.CurrentInv(p)
	r.eng.After(r.P.KickCost, c.kick)
	c.done.Get(p)
	return c
}

// recycle returns c to the free list, dropping what it references.
func (r *Ring[Req, Resp]) recycle(c *call[Req, Resp]) {
	clear(c.reqs)
	clear(c.resps)
	c.reqs, c.resps = c.reqs[:0], c.resps[:0]
	r.free = append(r.free, c)
}

// Serve runs the backend loop: for each batch, handler is invoked per
// request in order (it may sleep — it runs in the backend process), then
// the responses are returned to the guest behind one interrupt.
func (r *Ring[Req, Resp]) Serve(name string, handler func(p *simtime.Proc, req *Req) Resp) {
	svc := max(r.P.HostProc, 0)
	r.eng.Spawn(name, func(p *simtime.Proc) {
		for {
			c := r.reqs.GetThenSleep(p, r.P.HostProc)
			r.Rec.AdoptInv(p, c.inv)
			now := p.Now()
			r.Rec.Interval(p, trace.LayerVirtio, "ring-service", now.Add(-svc), now)
			for i := range c.reqs {
				c.resps = append(c.resps, handler(p, &c.reqs[i]))
			}
			now = p.Now()
			r.Rec.Interval(p, trace.LayerVirtio, "irq", now, now.Add(r.P.IRQCost))
			r.Rec.ReleaseInv(p)
			r.eng.After(r.P.IRQCost, c.irq)
		}
	})
}
