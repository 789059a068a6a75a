package masq

import (
	"errors"
	"fmt"
	"slices"

	"masq/internal/mem"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
)

// command is one control verb crossing the virtio ring (frontend →
// backend). op selects the verb; only the fields that verb reads are set.
type command struct {
	op     *op
	sess   *session
	pd     *rnic.PD
	mr     *rnic.MR
	cq     *rnic.CQ // destroy_cq's CQ, create_qp's send CQ
	rcq    *rnic.CQ // create_qp's receive CQ
	srq    *rnic.SRQ
	qp     *rnic.QP
	va     uint64
	n      int          // reg_mr length, create_cq depth, create_srq size
	ext    []mem.Extent // reg_mr/dereg_mr guest-physical extents
	access rnic.Access
	typ    rnic.QPType
	caps   rnic.QPCaps
	attr   verbs.Attr  // modify_qp; post_ud's virtual destination (DGID, DQPN)
	wr     rnic.SendWR // post_ud
}

// reply is the backend's answer: the object a create verb made, or err.
type reply struct {
	pd  *rnic.PD
	mr  *rnic.MR
	cq  *rnic.CQ
	srq *rnic.SRQ
	qp  *rnic.QP
	err error
}

// op is a forwarded control verb: its trace name, the handles it needs
// and its handler.
type op struct {
	name string
	need uint8
	run  func(b *Backend, p *simtime.Proc, c *command) reply
}

// Handles an op carries. handle refuses a command without a session, or
// unless each handle its op needs is live on this host's device (and, for
// a QP, the session's).
const (
	needPD = 1 << iota
	needMR
	needCQ // cq, and rcq for create_qp
	needSRQ
	needQP
)

// The forwarded control verbs.
var (
	opGetDevList = &op{"get_device_list", 0, func(b *Backend, p *simtime.Proc, c *command) reply { b.Host.Dev.GetDeviceList(p); return reply{} }}
	opOpenDev    = &op{"open_device", 0, func(b *Backend, p *simtime.Proc, c *command) reply { b.Host.Dev.Open(p); return reply{} }}
	opCloseDev   = &op{"close_device", 0, func(b *Backend, p *simtime.Proc, c *command) reply { b.Host.Dev.Close(p); return reply{} }}
	opAllocPD    = &op{"alloc_pd", 0, func(b *Backend, p *simtime.Proc, c *command) reply { return reply{pd: b.Host.Dev.AllocPD(p, nil)} }}
	opDeallocPD  = &op{"dealloc_pd", needPD, func(b *Backend, p *simtime.Proc, c *command) reply { b.Host.Dev.DeallocPD(p, c.pd); return reply{} }}
	opRegMR      = &op{"reg_mr", needPD, (*Backend).regMR}
	opDeregMR    = &op{"dereg_mr", needMR, (*Backend).deregMR}
	opCreateCQ   = &op{"create_cq", 0, (*Backend).createCQ}
	opDestroyCQ  = &op{"destroy_cq", needCQ, func(b *Backend, p *simtime.Proc, c *command) reply {
		b.Host.Dev.DestroyCQ(p, nil, c.cq)
		return reply{}
	}}
	opCreateSRQ = &op{"create_srq", 0, func(b *Backend, p *simtime.Proc, c *command) reply {
		if c.n <= 0 {
			return reply{err: fmt.Errorf("masq: create_srq of %d WRs", c.n)}
		}
		return reply{srq: b.Host.Dev.CreateSRQ(p, c.sess.fn, c.n)}
	}}
	opDestroySRQ = &op{"destroy_srq", needSRQ, func(b *Backend, p *simtime.Proc, c *command) reply {
		b.Host.Dev.DestroySRQ(p, nil, c.srq)
		return reply{}
	}}
	opCreateQP  = &op{"create_qp", needPD | needCQ, (*Backend).createQP}
	opDestroyQP = &op{"destroy_qp", needQP, (*Backend).destroyQP}
	opModifyQP  = &op{"modify_qp", needQP, func(b *Backend, p *simtime.Proc, c *command) reply { return reply{err: b.modifyQP(p, c)} }}
	opPostUD    = &op{"post_ud", needQP, func(b *Backend, p *simtime.Proc, c *command) reply { return reply{err: b.postUD(p, c)} }}
)

// handle executes one forwarded command on the host. Handles are checked
// before any cost is charged, so a nil, stale or foreign handle fails at
// once and a valid command keeps its timing.
func (b *Backend) handle(p *simtime.Proc, c *command) reply {
	o := c.op
	if o == nil {
		return reply{err: errors.New("masq: backend command without an op")}
	}
	sp := b.Rec.Begin(p, trace.LayerMasqBackend, o.name)
	defer sp.End(p)
	if dev := b.Host.Dev; c.sess == nil ||
		o.need&needPD != 0 && !dev.HasPD(c.pd) ||
		o.need&needMR != 0 && !dev.HasMR(c.mr) ||
		o.need&needCQ != 0 && (!dev.HasCQ(c.cq) || o == opCreateQP && !dev.HasCQ(c.rcq)) ||
		o.need&needSRQ != 0 && !dev.HasSRQ(c.srq) ||
		o.need&needQP != 0 && (!dev.HasQP(c.qp) || b.qpOwner[c.qp.Num] != c.sess) {
		return reply{err: fmt.Errorf("masq: %s: nil, stale or foreign handle", o.name)}
	}
	return o.run(b, p, c)
}

// regMR finishes the pinning walk: the frontend pinned GVA→GPA; the
// backend pins GPA→HVA→HPA and programs the MTT (Appendix B).
func (b *Backend) regMR(p *simtime.Proc, c *command) reply {
	covered := 0
	for _, e := range c.ext {
		covered += e.Len
	}
	if c.n <= 0 || covered != c.n {
		return reply{err: fmt.Errorf("masq: reg_mr of %d bytes over extents of %d", c.n, covered)}
	}
	var hpa []mem.Extent
	for _, e := range c.ext {
		sub, err := c.sess.vm.GPA.PinToPhys(e.Addr, e.Len)
		if err != nil {
			return reply{err: err}
		}
		hpa = append(hpa, sub...)
	}
	mr := b.Host.Dev.RegMR(p, c.sess.fn, c.pd, c.va, c.n, hpa, c.access)
	c.sess.mrs = append(c.sess.mrs, sessMR{mr: mr, gpa: c.ext})
	return reply{mr: mr}
}

func (b *Backend) deregMR(p *simtime.Proc, c *command) reply {
	b.Host.Dev.DeregMR(p, nil, c.mr)
	if i := slices.IndexFunc(c.sess.mrs, func(r sessMR) bool { return r.mr == c.mr }); i >= 0 {
		c.sess.mrs = append(c.sess.mrs[:i], c.sess.mrs[i+1:]...)
	}
	for _, e := range c.ext {
		if err := c.sess.vm.GPA.UnpinToPhys(e.Addr, e.Len); err != nil {
			return reply{err: err}
		}
	}
	return reply{}
}

func (b *Backend) createCQ(p *simtime.Proc, c *command) reply {
	if c.n <= 0 {
		return reply{err: fmt.Errorf("masq: create_cq of %d entries", c.n)}
	}
	if pool := b.pools[c.sess.vni]; pool != nil {
		if cq := pool.takeCQ(c.n); cq != nil {
			p.Sleep(b.P.PoolReuseCost)
			b.Stats.PoolHits++
			pool.noteTake(p.Now())
			return reply{cq: cq}
		}
		b.Stats.PoolMisses++
	}
	return reply{cq: b.Host.Dev.CreateCQ(p, c.sess.fn, c.n)}
}

func (b *Backend) createQP(p *simtime.Proc, c *command) reply {
	if c.typ != rnic.RC && c.typ != rnic.UD || c.caps.MaxSendWR < 0 || c.caps.MaxRecvWR < 0 ||
		c.caps.SRQ != nil && !b.Host.Dev.HasSRQ(c.caps.SRQ) {
		return reply{err: fmt.Errorf("masq: create_qp: bad type %d or caps %+v", c.typ, c.caps)}
	}
	if pool := b.pools[c.sess.vni]; pool != nil && c.typ == rnic.RC {
		if qp := pool.takeQP(); qp != nil {
			p.Sleep(b.P.PoolReuseCost)
			if err := qp.Rebind(c.pd, c.cq, c.rcq, c.caps); err != nil {
				return reply{err: err}
			}
			b.Stats.PoolHits++
			// The pooled QP is already in INIT with its source addressing
			// latched; modifyQP skips the guest's INIT verb.
			b.pooledInit[qp.Num] = true
			b.qpOwner[qp.Num] = c.sess
			c.sess.qps = append(c.sess.qps, qp)
			pool.noteTake(p.Now())
			return reply{qp: qp}
		}
		b.Stats.PoolMisses++
	}
	qp := b.Host.Dev.CreateQP(p, c.sess.fn, c.pd, c.cq, c.rcq, c.typ, c.caps)
	b.qpOwner[qp.Num] = c.sess
	c.sess.qps = append(c.sess.qps, qp)
	return reply{qp: qp}
}

func (b *Backend) destroyQP(p *simtime.Proc, c *command) reply {
	b.dropQP(p, c.qp.Num)
	c.sess.qps = without(c.sess.qps, c.qp)
	b.Host.Dev.DestroyQP(p, c.qp)
	return reply{}
}

// dropQP erases what the backend tracks for a QP leaving this host: its
// RCT rows, its owner, and its pooled-INIT and shared-flow marks.
func (b *Backend) dropQP(p *simtime.Proc, qpn uint32) {
	b.CT.Delete(p, qpn)
	delete(b.qpOwner, qpn)
	delete(b.pooledInit, qpn)
	b.sharedDetach(qpn)
}
