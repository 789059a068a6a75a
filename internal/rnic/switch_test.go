package rnic

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// TestRCWriteViaSwitchZeroAlloc: two hosts on different engine shards,
// each with a ConnectVia uplink to a ToR switch. Once the queues, pools and
// the frame free list are warm, a signaled RC WRITE — data frame out,
// switch hop, responder DMA, ACK frame back, completion — allocates
// nothing: every frame packet.Serialize builds is recycled by the
// receiving RNIC's Release.
func TestRCWriteViaSwitchZeroAlloc(t *testing.T) {
	se := simtime.NewSharded(2)
	p := DefaultParams()
	a := newNode(se.Shard(0), "devA", packet.NewIP(10, 0, 0, 1), packet.MAC{2, 0, 0, 0, 0, 1}, p)
	b := newNode(se.Shard(1), "devB", packet.NewIP(10, 0, 0, 2), packet.MAC{2, 0, 0, 0, 0, 2}, p)
	sw := simnet.NewSwitch(se.Shard(0), "tor", simtime.Us(0.3))
	sw.AttachPortVia(se, a.port, p.LineRate, simtime.Us(1))
	sw.AttachPortVia(se, b.port, p.LineRate, simtime.Us(1))

	const msg = 512
	var c, s *endpoint
	var sva, rva uint64
	var smr, rmr *MR
	se.Shard(0).Spawn("client", func(pr *simtime.Proc) {
		c = makeEndpoint(t, pr, a, RC)
		sva, smr = a.buffer(t, pr, c.pd, msg, AccessLocalWrite)
	})
	se.Shard(1).Spawn("server", func(pr *simtime.Proc) {
		s = makeEndpoint(t, pr, b, RC)
		rva, rmr = b.buffer(t, pr, s.pd, msg, AccessLocalWrite|AccessRemoteWrite)
	})
	se.Run()
	toRTS := func(x, peer *endpoint) func(*simtime.Proc) {
		return func(pr *simtime.Proc) {
			for _, at := range []Attr{{ToState: StateInit}, {ToState: StateRTR, AV: av(peer)}, {ToState: StateRTS}} {
				if err := x.n.dev.ModifyQP(pr, x.qp, at); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	se.Shard(0).Spawn("client-rts", toRTS(c, s))
	se.Shard(1).Spawn("server-rts", toRTS(s, c))
	se.Run()
	if t.Failed() {
		t.FailNow()
	}

	const perStep = 4
	wr := SendWR{Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: msg, RemoteAddr: rva, RKey: rmr.RKey}
	done := 0
	step := func() {
		for i := 0; i < perStep; i++ {
			if err := c.qp.PostSendAsync(wr); err != nil {
				t.Fatal(err)
			}
		}
		se.Run()
		for {
			wc, ok := c.scq.TryGet()
			if !ok {
				break
			}
			if wc.Status != WCSuccess {
				t.Fatalf("write WC = %+v", wc)
			}
			done++
		}
	}
	step() // warm the link and device pools and the frame free list
	allocs := testing.AllocsPerRun(100, step)
	if want := perStep * 102; done != want {
		t.Fatalf("completed %d writes, want %d", done, want)
	}
	if b.dev.Stats.RxPackets == 0 || sw.Dropped != 0 {
		t.Fatalf("responder saw %d packets, switch dropped %d", b.dev.Stats.RxPackets, sw.Dropped)
	}
	if allocs != 0 {
		t.Fatalf("steady-state RC write via the switch allocates %.2f times per %d writes, want 0", allocs, perStep)
	}
}
