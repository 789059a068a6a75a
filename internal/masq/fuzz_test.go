package masq

import (
	"fmt"
	"testing"

	"masq/internal/hyper"
	"masq/internal/mem"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// byteSrc draws small numbers from fuzz input, reading zeros once it is
// exhausted.
type byteSrc []byte

func (b *byteSrc) n(k int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % k
	*b = (*b)[1:]
	return v
}

// allOps lists every forwarded control verb.
var allOps = []*op{
	opGetDevList, opOpenDev, opCloseDev, opAllocPD, opDeallocPD,
	opRegMR, opDeregMR, opCreateCQ, opDestroyCQ, opCreateSRQ,
	opDestroySRQ, opCreateQP, opDestroyQP, opModifyQP, opPostUD,
}

// handleSet is one object of every kind a command can name.
type handleSet struct {
	pd  *rnic.PD
	mr  *rnic.MR
	cq  *rnic.CQ
	srq *rnic.SRQ
	qp  *rnic.QP
}

// fuzzWorld is what FuzzBackendCommand fires commands into: a frontend
// with a live object of every kind, the same kinds already destroyed
// through the ring, and foreign ones — another session's QP on the same
// host and objects of another host's device.
type fuzzWorld struct {
	b                   *bed
	fe                  *Frontend
	live, dead, foreign handleSet
	otherQP             *rnic.QP     // live, owned by another session on this host
	va                  uint64       // a pinned guest buffer no MR covers yet,
	gpa                 []mem.Extent // and its guest-physical extents
	peer                packet.GID   // a vGID the controller maps
}

const fuzzBuf = 2 * mem.PageSize

func newFuzzWorld(t *testing.T) *fuzzWorld {
	b := newBed(t, ModeVF)
	b.allowAll(t, 100)
	w := &fuzzWorld{b: b}
	newFE := func(name string, ip packet.IP) *Frontend {
		vm, err := b.host.NewVM(name, 1<<30, 100, ip)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := b.be.NewFrontend(vm, 100)
		if err != nil {
			t.Fatal(err)
		}
		return fe
	}
	w.fe = newFE("vm0", packet.NewIP(192, 168, 1, 1))
	other := newFE("vm1", packet.NewIP(192, 168, 1, 2))
	w.peer = other.sess.vbond.GID()
	far := hyper.NewHost(b.eng, hyper.HostConfig{
		Name: "h1", IP: packet.NewIP(172, 16, 0, 2), MAC: packet.MAC{2, 0, 0, 0, 0, 2},
		MemBytes: 1 << 30, RNIC: rnic.DefaultParams(), Hyper: hyper.DefaultParams(),
		Fabric:      b.fab,
		ResolveHost: func(packet.IP) (packet.MAC, bool) { return packet.MAC{}, false },
	})
	var err error
	b.eng.Spawn("fuzz-setup", func(p *simtime.Proc) {
		mk := func(fe *Frontend) (hs handleSet) {
			c := func(cmd command) reply {
				r := fe.call(p, cmd)
				if r.err != nil && err == nil {
					err = fmt.Errorf("%s: %w", cmd.op.name, r.err)
				}
				return r
			}
			hs.pd = c(command{op: opAllocPD}).pd
			va, _ := fe.sess.vm.GVA.Alloc(fuzzBuf)
			gpa, _ := fe.sess.vm.GVA.Pin(va, fuzzBuf)
			hs.mr = c(command{op: opRegMR, pd: hs.pd, va: va, n: fuzzBuf, ext: gpa}).mr
			hs.cq = c(command{op: opCreateCQ, n: 8}).cq
			hs.srq = c(command{op: opCreateSRQ, n: 8}).srq
			hs.qp = c(command{op: opCreateQP, pd: hs.pd, cq: hs.cq, rcq: hs.cq, typ: rnic.RC, caps: rnic.DefaultCaps()}).qp
			return hs
		}
		w.live = mk(w.fe)
		w.dead = mk(w.fe)
		d := w.dead
		for _, cmd := range []command{
			{op: opDestroyQP, qp: d.qp}, {op: opDestroySRQ, srq: d.srq}, {op: opDestroyCQ, cq: d.cq},
			{op: opDeregMR, mr: d.mr, ext: w.gpaOf(d.mr)}, {op: opDeallocPD, pd: d.pd},
		} {
			if r := w.fe.call(p, cmd); r.err != nil && err == nil {
				err = fmt.Errorf("%s: %w", cmd.op.name, r.err)
			}
		}
		w.otherQP = mk(other).qp
		dev, fn := far.Dev, far.Dev.PF()
		w.foreign.pd = dev.AllocPD(p, fn)
		w.foreign.mr = dev.RegMR(p, fn, w.foreign.pd, 0, fuzzBuf, nil, rnic.AccessLocalWrite)
		w.foreign.cq = dev.CreateCQ(p, fn, 8)
		w.foreign.srq = dev.CreateSRQ(p, fn, 8)
		w.foreign.qp = dev.CreateQP(p, fn, w.foreign.pd, w.foreign.cq, w.foreign.cq, rnic.RC, rnic.DefaultCaps())
		w.va, _ = w.fe.sess.vm.GVA.Alloc(fuzzBuf)
		w.gpa, _ = w.fe.sess.vm.GVA.Pin(w.va, fuzzBuf)
	})
	b.eng.Run()
	if err != nil {
		t.Fatalf("fuzz world setup: %v", err)
	}
	return w
}

// gpaOf returns the guest-physical extents the session registered mr with.
func (w *fuzzWorld) gpaOf(mr *rnic.MR) []mem.Extent {
	for _, r := range w.fe.sess.mrs {
		if r.mr == mr {
			return r.gpa
		}
	}
	return nil
}

// fuzzCmd decodes one command from src, reporting whether it carries
// garbage the backend must refuse: a nil op or session, a nil, destroyed
// or foreign handle its op reads, a non-positive length, extents that do
// not cover the length, a bad QP type, caps or target state, an RC RTR
// without a destination QPN, or a UD destination nobody registered.
func (w *fuzzWorld) fuzzCmd(src *byteSrc) (command, bool) {
	var c command
	bad := false
	pick := func(k int) int { return src.n(k) }
	if i := pick(len(allOps) + 1); i < len(allOps) {
		c.op = allOps[i]
	} else {
		bad = true
	}
	if pick(4) == 3 {
		bad = true
	} else {
		c.sess = w.fe.sess
	}
	need := func(flag uint8) bool { return c.op != nil && c.op.need&flag != 0 }
	// handle picks live (0), nil (1), destroyed (2) or foreign (3).
	handle := func(flag uint8) int {
		h := pick(4)
		if h != 0 && need(flag) {
			bad = true
		}
		return h
	}
	set := func(h int) handleSet { return [...]handleSet{w.live, {}, w.dead, w.foreign}[h] }
	c.pd = set(handle(needPD)).pd
	c.mr = set(handle(needMR)).mr
	c.cq = set(handle(needCQ)).cq
	c.srq = set(handle(needSRQ)).srq
	switch h := handle(needQP); {
	case h == 3 && pick(2) == 0:
		c.qp = w.otherQP
	default:
		c.qp = set(h).qp
	}
	if c.op == opCreateQP {
		c.rcq = set(handle(needCQ)).cq
	}
	lengthOp := c.op == opCreateCQ || c.op == opCreateSRQ || c.op == opRegMR
	switch pick(4) {
	case 0:
		c.n = map[bool]int{true: fuzzBuf, false: 8}[c.op == opRegMR]
	case 1:
		bad = bad || lengthOp
	case 2:
		c.n, bad = -1, bad || lengthOp
	case 3:
		c.n, bad = 1<<40, bad || c.op == opRegMR
	}
	c.va = w.va
	switch pick(5) {
	case 0:
		c.ext = w.gpa
	case 1:
		bad = bad || c.op == opRegMR && c.n > 0
	case 2:
		c.ext, bad = []mem.Extent{{Addr: w.gpa[0].Addr, Len: 0}}, bad || c.op == opRegMR
	case 3:
		c.ext, bad = []mem.Extent{{Addr: w.gpa[0].Addr, Len: -fuzzBuf}, {Addr: w.gpa[0].Addr, Len: 2 * fuzzBuf}}, bad || c.op == opRegMR
	case 4:
		c.ext, bad = []mem.Extent{{Addr: 1 << 50, Len: fuzzBuf}}, bad || c.op == opRegMR
	}
	c.typ = rnic.RC
	c.caps = rnic.DefaultCaps()
	switch pick(5) {
	case 1:
		c.typ = rnic.UD
	case 2:
		c.typ, bad = 7, bad || c.op == opCreateQP
	case 3:
		c.caps.MaxSendWR, bad = -1, bad || c.op == opCreateQP
	case 4:
		c.caps.SRQ, bad = w.dead.srq, bad || c.op == opCreateQP
	}
	states := []rnic.State{rnic.StateReset, rnic.StateInit, rnic.StateRTR, rnic.StateRTS, rnic.StateError, 77, -1}
	c.attr.ToState = states[pick(len(states))]
	if c.op == opModifyQP && (c.attr.ToState == 77 || c.attr.ToState == -1) {
		bad = true
	}
	switch pick(3) {
	case 0:
		c.attr.DGID = w.peer
	case 1:
		c.attr.DGID, bad = packet.GIDFromIP(packet.NewIP(10, 9, 9, 9)), bad || c.op == opPostUD
	}
	if pick(2) == 0 {
		c.attr.DQPN = uint32(1 + pick(200))
	} else if c.op == opModifyQP && c.attr.ToState == rnic.StateRTR && c.qp != nil && c.qp.Type == rnic.RC {
		bad = true
	}
	if c.op == opPostUD && c.attr.DGID.IsZero() {
		bad = true
	}
	c.wr = verbs.SendWR{WRID: uint64(pick(256)), Len: pick(3) * 64}
	return c, bad
}

// checkBackendCommands fires the commands decoded from data through the
// frontend's ring. None may panic, and every one carrying garbage its op
// reads must come back with an error.
func checkBackendCommands(t *testing.T, data []byte) {
	w := newFuzzWorld(t)
	defer w.b.eng.Close()
	src := byteSrc(data)
	w.b.eng.Spawn("fuzz", func(p *simtime.Proc) {
		for i := 0; len(src) > 0 && i < 32; i++ {
			c, bad := w.fuzzCmd(&src)
			r := w.fe.ring.Call(p, c)
			if bad && r.err == nil {
				name := "nil op"
				if c.op != nil {
					name = c.op.name
				}
				t.Errorf("command %d (%s) carried garbage but succeeded: %+v", i, name, c)
			}
		}
	})
	w.b.eng.Run()
}

// FuzzBackendCommand sends random commands through the MasQ backend —
// every op, with garbage, nil, destroyed and foreign handles, lengths,
// QPNs and target states. Run it with
//
//	go test -fuzz FuzzBackendCommand ./internal/masq
func FuzzBackendCommand(f *testing.F) {
	f.Add([]byte{})
	for i := range allOps {
		// Each op once with every field valid, then with every field bad.
		f.Add([]byte{byte(i), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
		f.Add([]byte{byte(i), 3, 1, 2, 3, 1, 2, 3, 1, 2, 2, 6, 1, 1, 1})
	}
	f.Add([]byte{byte(len(allOps)), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(checkBackendCommands)
}
