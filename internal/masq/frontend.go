package masq

import (
	"fmt"

	"masq/internal/mem"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
	"masq/internal/virtio"
)

// Frontend is MasQ's paravirtual driver inside a VM. It implements
// verbs.Provider: control-path verbs travel the virtio ring to the
// backend; data-path verbs touch the memory-mapped queues directly.
type Frontend struct {
	b    *Backend
	sess *session
	ring *virtio.Ring[command, reply]
}

// Name implements verbs.Provider.
func (f *Frontend) Name() string { return f.b.Mode.String() }

// VBond exposes the device bond (inspection and tests).
func (f *Frontend) VBond() *VBond { return f.sess.vbond }

// call forwards one command on behalf of the frontend's session.
func (f *Frontend) call(p *simtime.Proc, c command) reply {
	sp := f.b.Rec.Begin(p, trace.LayerMasqFrontend, "forward")
	c.sess = f.sess
	r := f.ring.Call(p, c)
	sp.End(p)
	return r
}

// Open implements verbs.Provider: both discovery verbs are forwarded
// (Table 1 rows 1–2).
func (f *Frontend) Open(p *simtime.Proc) (verbs.Device, error) {
	if r := f.call(p, command{op: opGetDevList}); r.err != nil {
		return nil, r.err
	}
	if r := f.call(p, command{op: opOpenDev}); r.err != nil {
		return nil, r.err
	}
	return &fdevice{f: f}, nil
}

type fdevice struct {
	f *Frontend
}

type fpd struct{ pd *rnic.PD }

func (x fpd) Handle() uint32 { return x.pd.Num }

// AllocPD mints the host-side PD object. The paper's Table 1 marks
// alloc_pd as pure software ("-"); this implementation does forward it so
// the backend owns a real PD, adding one virtio round trip to a verb the
// application calls once per lifetime.
func (d *fdevice) AllocPD(p *simtime.Proc) (verbs.PD, error) {
	r := d.f.call(p, command{op: opAllocPD})
	if r.err != nil {
		return nil, r.err
	}
	return fpd{r.pd}, nil
}

type fmr struct {
	d   *fdevice
	mr  *rnic.MR
	va  uint64
	ln  int
	gpa []mem.Extent
}

func (m fmr) LKey() uint32 { return m.mr.LKey }
func (m fmr) RKey() uint32 { return m.mr.RKey }
func (m fmr) Addr() uint64 { return m.va }
func (m fmr) Len() int     { return m.ln }

func (m fmr) Dereg(p *simtime.Proc) error {
	if r := m.d.f.call(p, command{op: opDeregMR, mr: m.mr, ext: m.gpa}); r.err != nil {
		return r.err
	}
	return m.d.f.sess.vm.GVA.Unpin(m.va, m.ln)
}

// RegMR pins GVA→GPA in the guest and forwards the command with the
// address mapping; the backend completes the walk to HPA (Fig. 4 step 1).
func (d *fdevice) RegMR(p *simtime.Proc, vpd verbs.PD, va uint64, length int, access verbs.Access) (verbs.MR, error) {
	rpd, ok := vpd.(fpd)
	if !ok {
		return nil, fmt.Errorf("masq: foreign PD handle")
	}
	gpa, err := d.f.sess.vm.GVA.Pin(va, length)
	if err != nil {
		return nil, err
	}
	r := d.f.call(p, command{op: opRegMR, pd: rpd.pd, va: va, n: length, ext: gpa, access: access})
	if r.err != nil {
		return nil, r.err
	}
	return fmr{d: d, mr: r.mr, va: va, ln: length, gpa: gpa}, nil
}

type fcq struct {
	d  *fdevice
	cq *rnic.CQ
}

// The CQ ring is memory-mapped into the guest: polling is direct.
func (c fcq) TryPoll(p *simtime.Proc) (verbs.WC, bool) { return c.cq.TryPoll(p) }
func (c fcq) Wait(p *simtime.Proc) verbs.WC            { return c.cq.Wait(p) }
func (c fcq) WaitTimeout(p *simtime.Proc, t simtime.Duration) (verbs.WC, bool) {
	return c.cq.WaitTimeout(p, t)
}
func (c fcq) Destroy(p *simtime.Proc) error {
	return c.d.f.call(p, command{op: opDestroyCQ, cq: c.cq}).err
}

// The mapped CQ ring also supports the callback-style capability
// (verbs.AsyncCQ) without touching the control path.
func (c fcq) OnComplete(fn func(verbs.WC)) { c.cq.OnComplete(fn) }
func (c fcq) TryGet() (verbs.WC, bool)     { return c.cq.TryGet() }
func (c fcq) PollCost() simtime.Duration   { return c.cq.PollCost() }

func (d *fdevice) CreateCQ(p *simtime.Proc, cqe int) (verbs.CQ, error) {
	r := d.f.call(p, command{op: opCreateCQ, n: cqe})
	if r.err != nil {
		return nil, r.err
	}
	return fcq{d: d, cq: r.cq}, nil
}

type fqp struct {
	d  *fdevice
	qp *rnic.QP
}

func (q fqp) Num() uint32        { return q.qp.Num }
func (q fqp) State() verbs.State { return q.qp.State() }

// Modify forwards through the backend, where RConnrename rewrites the
// destination addressing and RConntrack enforces security rules.
func (q fqp) Modify(p *simtime.Proc, a verbs.Attr) error {
	return q.d.f.call(p, command{op: opModifyQP, qp: q.qp, attr: a}).err
}

// PostSend is the data path: zero-copy, directly to the mapped queues.
// The exception is a UD work request that names a (virtual) destination —
// those are routed through the control path so RConnrename can rewrite
// the address (Sec. 3.3.4).
func (q fqp) PostSend(p *simtime.Proc, wr verbs.SendWR) error {
	if q.qp.Type == rnic.UD && wr.Remote != nil {
		dst := verbs.Attr{DGID: wr.Remote.DGID, DQPN: wr.Remote.DQPN}
		wr.Remote = nil
		return q.d.f.call(p, command{op: opPostUD, qp: q.qp, wr: wr, attr: dst}).err
	}
	return q.qp.PostSend(p, wr)
}

// PostRecv is pure data path.
func (q fqp) PostRecv(p *simtime.Proc, wr verbs.RecvWR) error {
	return q.qp.PostRecv(p, wr)
}

// Callback-style posting (verbs.AsyncQP) covers the zero-copy data path
// only; a UD WR that names a virtual destination must go through the
// control path, which needs a process context.
func (q fqp) PostSendCost() simtime.Duration { return q.qp.PostSendCost() }
func (q fqp) PostSendAsync(wr verbs.SendWR) error {
	if q.qp.Type == rnic.UD && wr.Remote != nil {
		return fmt.Errorf("masq: async post_send cannot route a UD WR through RConnrename")
	}
	return q.qp.PostSendAsync(wr)
}

func (q fqp) Destroy(p *simtime.Proc) error {
	return q.d.f.call(p, command{op: opDestroyQP, qp: q.qp}).err
}

func (d *fdevice) CreateQP(p *simtime.Proc, vpd verbs.PD, send, recv verbs.CQ, typ verbs.QPType, caps verbs.QPCaps) (verbs.QP, error) {
	rpd, ok := vpd.(fpd)
	if !ok {
		return nil, fmt.Errorf("masq: foreign PD handle")
	}
	scq, ok1 := send.(fcq)
	rcq, ok2 := recv.(fcq)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("masq: foreign CQ handle")
	}
	r := d.f.call(p, command{op: opCreateQP, pd: rpd.pd, cq: scq.cq, rcq: rcq.cq, typ: typ, caps: caps})
	if r.err != nil {
		return nil, r.err
	}
	return fqp{d: d, qp: r.qp}, nil
}

type fsrq struct {
	d *fdevice
	s *rnic.SRQ
}

// SRQ posts are pure data path (the queue is memory-mapped like the RQ).
func (x fsrq) PostRecv(p *simtime.Proc, wr verbs.RecvWR) error { return x.s.PostRecv(p, wr) }
func (x fsrq) Len() int                                        { return x.s.Len() }
func (x fsrq) Raw() *rnic.SRQ                                  { return x.s }
func (x fsrq) Destroy(p *simtime.Proc) error {
	return x.d.f.call(p, command{op: opDestroySRQ, srq: x.s}).err
}

// CreateSRQ is a control-path verb: forwarded to the backend.
func (d *fdevice) CreateSRQ(p *simtime.Proc, maxWR int) (verbs.SRQ, error) {
	r := d.f.call(p, command{op: opCreateSRQ, n: maxWR})
	if r.err != nil {
		return nil, r.err
	}
	return fsrq{d: d, s: r.srq}, nil
}

// Async events (verbs.AsyncDevice): the backend injects device events into
// the session's event queue after the interrupt latency; reading them is a
// local dequeue, like ibv_get_async_event on the mapped event channel.
func (d *fdevice) GetAsyncEvent(p *simtime.Proc) verbs.AsyncEvent {
	return d.f.sess.events.Get(p)
}

func (d *fdevice) GetAsyncEventTimeout(p *simtime.Proc, t simtime.Duration) (verbs.AsyncEvent, bool) {
	return d.f.sess.events.GetTimeout(p, t)
}

func (d *fdevice) TryAsyncEvent() (verbs.AsyncEvent, bool) {
	return d.f.sess.events.TryGet()
}

// QueryGID is answered locally by vBond (pure software, not forwarded);
// the host-verb cost still applies in the guest library.
func (d *fdevice) QueryGID(p *simtime.Proc) (packet.GID, error) {
	p.Sleep(d.f.b.Host.Dev.VerbCost(rnic.VerbQueryGID))
	g := d.f.sess.vbond.GID()
	if g.IsZero() {
		return g, fmt.Errorf("masq: virtual interface has no IP; GID not initialized")
	}
	return g, nil
}

func (d *fdevice) Close(p *simtime.Proc) error {
	return d.f.call(p, command{op: opCloseDev}).err
}
