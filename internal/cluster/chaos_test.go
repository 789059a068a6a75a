package cluster_test

// The failure-reaction chain, end to end: chaos faults at the bottom,
// QP-fatal async events in the middle, reconnecting applications on top.
// The soak at the end runs all of it at once and checks the global
// invariants — nothing leaks, nobody hangs, and the whole run is a pure
// function of its seed.

import (
	"bytes"
	"fmt"
	"testing"

	"masq/internal/apps/perftest"
	"masq/internal/apps/reconnect"
	"masq/internal/chaos"
	"masq/internal/cluster"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

const vni = 100 // NewConnectedPair's tenant

// shortRetry makes retry exhaustion fast enough that mid-run fault windows
// actually kill QPs instead of being ridden out by retransmission.
func shortRetry(cfg cluster.Config) cluster.Config {
	cfg.RNIC.RetransTimeout = simtime.Us(200)
	cfg.RNIC.MaxRetry = 3
	return cfg
}

// TestCrashNodeCleansUpStateEverywhere kills the server VM of a connected
// pair and checks every layer reacted: the dead host's conntrack and the
// controller mapping are flushed immediately; the surviving client's QP
// dies by retry exhaustion, raising one fatal async event whose handler
// erases the client-side conntrack entry.
func TestCrashNodeCleansUpStateEverywhere(t *testing.T) {
	cp, err := cluster.NewConnectedPair(shortRetry(cluster.DefaultConfig()), cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	clientB, serverB := tb.Backends[0], tb.Backends[1]
	if len(serverB.CT.Conns()) == 0 || len(clientB.CT.Conns()) == 0 {
		t.Fatal("expected conntrack entries on both hosts after connect")
	}
	if got := len(tb.CtrlSharded.Dump(vni)); got != 2 {
		t.Fatalf("controller has %d mappings, want 2", got)
	}

	peer := cp.Server.Info() // captured before the crash, like a real app
	if err := tb.CrashNode(cp.ServerNode); err != nil {
		t.Fatal(err)
	}
	var status verbs.WCStatus
	tb.Eng.Spawn("survivor", func(p *simtime.Proc) {
		for i := 0; ; i++ {
			if err := cp.Client.QP.PostSend(p, verbs.SendWR{
				WRID: uint64(i), Op: verbs.WRWrite, LocalAddr: cp.Client.Buf,
				LKey: cp.Client.MR.LKey(), Len: 4096, RemoteAddr: peer.Addr, RKey: peer.RKey,
			}); err != nil {
				return
			}
			wc, ok := cp.Client.SCQ.WaitTimeout(p, simtime.Ms(100))
			if !ok {
				return
			}
			if wc.Status != verbs.WCSuccess {
				status = wc.Status
				return
			}
		}
	})
	tb.Eng.Run()

	if status == verbs.WCSuccess {
		t.Fatal("survivor never saw its QP die")
	}
	if n := len(serverB.CT.Conns()); n != 0 {
		t.Fatalf("dead host leaked %d conntrack entries", n)
	}
	if serverB.Stats.Crashes != 1 {
		t.Fatalf("server backend crashes = %d, want 1", serverB.Stats.Crashes)
	}
	if got := len(tb.CtrlSharded.Dump(vni)); got != 1 {
		t.Fatalf("controller has %d mappings after crash, want 1 (survivor only)", got)
	}
	if tb.Fab.Lookup(vni, cp.ServerNode.VIP) != nil {
		t.Fatal("fabric still resolves the dead endpoint")
	}
	if cp.ServerNode.Host.VMs() != 0 {
		t.Fatal("dead VM still attached to its host")
	}
	if clientB.Stats.FatalEvents != 1 || clientB.Stats.AsyncCleanups != 1 {
		t.Fatalf("client backend fatal/cleanup = %d/%d, want 1/1",
			clientB.Stats.FatalEvents, clientB.Stats.AsyncCleanups)
	}
	if n := len(clientB.CT.Conns()); n != 0 {
		t.Fatalf("survivor leaked %d conntrack entries after the fatal event", n)
	}
}

// TestDestroyQPRacesCrashNode fires a guest-initiated destroy_qp and the
// VM's death at the same virtual instant: both cleanup paths must run to
// completion without panicking or leaving state behind, whichever wins.
func TestDestroyQPRacesCrashNode(t *testing.T) {
	cp, err := cluster.NewConnectedPair(shortRetry(cluster.DefaultConfig()), cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	tb.Eng.Spawn("guest-destroy", func(p *simtime.Proc) {
		_ = cp.Server.QP.Destroy(p)
	})
	if err := tb.CrashNode(cp.ServerNode); err != nil {
		t.Fatal(err)
	}
	tb.Eng.Run()
	if n := len(tb.Backends[1].CT.Conns()); n != 0 {
		t.Fatalf("leaked %d conntrack entries", n)
	}
	if got := len(tb.CtrlSharded.Dump(vni)); got != 1 {
		t.Fatalf("controller has %d mappings, want 1", got)
	}
	if cp.ServerNode.Host.VMs() != 0 {
		t.Fatal("dead VM still attached")
	}
}

// TestChaosLinkCutRaisesGuestPortEvents arms a link outage through the
// testbed injector and reads the resulting PORT_DOWN / PORT_UP pair from
// inside the guest via the async event channel — the full path simnet →
// injector → RNIC port state → virtio IRQ → frontend event queue.
func TestChaosLinkCutRaisesGuestPortEvents(t *testing.T) {
	cp, err := cluster.NewConnectedPair(cluster.DefaultConfig(), cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	tb.Chaos.Arm(chaos.Plan{Events: chaos.Outage(tb.HostLink(0),
		tb.Eng.Now().Add(simtime.Us(100)), tb.Eng.Now().Add(simtime.Us(300)))})
	var evs []verbs.AsyncEventType
	tb.Eng.Spawn("guest-watcher", func(p *simtime.Proc) {
		aev, ok := verbs.AsAsync(cp.Client.Dev)
		if !ok {
			t.Error("masq device does not expose the async event channel")
			return
		}
		for {
			ev, ok := aev.GetAsyncEventTimeout(p, simtime.Ms(2))
			if !ok {
				return
			}
			evs = append(evs, ev.Type)
		}
	})
	tb.Eng.Run()
	if len(evs) != 2 || evs[0] != verbs.EventPortDown || evs[1] != verbs.EventPortUp {
		t.Fatalf("guest saw %v, want [PORT_DOWN PORT_UP]", evs)
	}
	if tb.Chaos.Stats.LinkTransitions != 2 {
		t.Fatalf("injector transitions = %d, want 2", tb.Chaos.Stats.LinkTransitions)
	}
}

// TestOOBSurvivesBurstLoss pushes the out-of-band channel through two
// chaos loss windows: the connection handshake retransmits its SYN until
// the first window passes, and a data message sent into the second window
// is retransmitted and delivered exactly once.
func TestOOBSurvivesBurstLoss(t *testing.T) {
	cfg := cluster.DefaultConfig()
	tb := cluster.New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	c, err := tb.NewNode(cluster.ModeHost, 0, vni, packet.NewIP(10, 9, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := tb.NewNode(cluster.ModeHost, 1, vni, packet.NewIP(10, 9, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	l := tb.HostLink(0)
	tb.Chaos.Arm(chaos.Plan{Seed: 1, Events: []chaos.Event{
		chaos.Loss(l, simtime.Time(simtime.Us(10)), simtime.Time(simtime.Ms(3)), 1.0, 1),
		chaos.Loss(l, simtime.Time(simtime.Ms(8)), simtime.Time(simtime.Ms(10)), 1.0, 1),
	}})

	var got []byte
	var extra bool
	srvDone := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("server", func(p *simtime.Proc) {
		lis, err := s.OOB.Listen(4001)
		if err != nil {
			srvDone.Trigger(err)
			return
		}
		conn, ok := lis.AcceptTimeout(p, simtime.Ms(100))
		if !ok {
			srvDone.Trigger(fmt.Errorf("no connection"))
			return
		}
		msg, err := conn.Recv(p)
		if err != nil {
			srvDone.Trigger(err)
			return
		}
		got = msg
		if _, err := conn.RecvTimeout(p, simtime.Ms(20)); err == nil {
			extra = true // a duplicate delivery would be a retx bug
		}
		srvDone.Trigger(nil)
	})
	cliDone := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("client", func(p *simtime.Proc) {
		p.Sleep(simtime.Us(50)) // dial inside the first loss window
		conn, err := c.OOB.Dial(p, s.VIP, 4001, simtime.Ms(50))
		if err != nil {
			cliDone.Trigger(err)
			return
		}
		// Send into the second loss window: the DATA segment is lost and
		// must be retransmitted.
		for p.Now() < simtime.Time(simtime.Ms(8)+simtime.Us(500)) {
			p.Sleep(simtime.Us(100))
		}
		cliDone.Trigger(conn.Send(p, []byte("through the storm")))
	})
	tb.Eng.Run()
	if err := cliDone.Value(); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := srvDone.Value(); err != nil {
		t.Fatalf("server: %v", err)
	}
	if string(got) != "through the storm" {
		t.Fatalf("server got %q", got)
	}
	if extra {
		t.Fatal("message delivered more than once")
	}
	if c.OOB.Stats.SynRetx == 0 {
		t.Fatalf("no SYN retransmissions under a full blackout: %+v", c.OOB.Stats)
	}
	if c.OOB.Stats.DataRetx == 0 {
		t.Fatalf("no DATA retransmissions under loss: %+v", c.OOB.Stats)
	}
}

// soakSummary runs the chaos soak once for a given seed and returns a
// deterministic textual digest of everything observable: the injector's
// applied-fault trace, per-stream goodput and recovery counters, per-link
// drop accounting, backend failure counters, and the controller's final
// table. Two same-seed runs must produce byte-identical digests.
func soakSummary(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := shortRetry(cluster.DefaultConfig())
	cfg.Hosts = 3
	tb := cluster.New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	mk := func(host int, last byte) *cluster.Node {
		n, err := tb.NewNode(cluster.ModeMasQ, host, vni, packet.NewIP(192, 168, 9, last))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	c0, s0 := mk(0, 1), mk(1, 2) // stream A: host0 → host1, node idx 0,1
	c1, s1 := mk(2, 3), mk(1, 4) // stream B: host2 → host1, node idx 2,3
	victim := mk(2, 5)           // node idx 4: idle, crashed mid-run
	_ = victim

	// Long enough that streams can ride out the worst-case fault windows
	// (outages up to 10% of the horizon) plus oob retransmission backoff.
	horizon := simtime.Ms(50)
	plan := chaos.RandomPlan(seed, tb.Links, horizon, 6, 0.25)
	plan.Events = append(plan.Events, chaos.Crash(4, simtime.Time(simtime.Ms(20))))
	tb.Chaos.Arm(plan)

	pol := reconnect.Policy{
		MaxAttempts: 12,
		Backoff:     simtime.Us(500),
		MaxBackoff:  simtime.Ms(4),
		DialTimeout: simtime.Ms(5),
	}
	resA := perftest.StartResilientWriteBW(tb, c0, s0, 7500, 8192, horizon, pol)
	resB := perftest.StartResilientWriteBW(tb, c1, s1, 7501, 8192, horizon, pol)
	tb.Eng.Run()

	if !resA.Triggered() || !resB.Triggered() {
		t.Fatalf("streams stuck (pending procs: %v)", tb.Eng.PendingProcs())
	}
	a, b := resA.Value(), resB.Value()
	// Liveness: sub-fatal loss and bounded outages must never black a
	// stream out permanently — both recovered and moved bytes.
	if a.Msgs == 0 || b.Msgs == 0 {
		t.Fatalf("a stream moved no data: A=%+v B=%+v", a, b)
	}
	if a.GaveUp || b.GaveUp {
		t.Fatalf("a stream gave up reconnecting: A=%+v B=%+v", a, b)
	}
	// No leaks: every app closed its endpoints (or died trying), every
	// fatal event's cleanup ran, the crash flushed the victim — so no
	// conntrack entry may survive the drain, and the controller holds
	// exactly the four live nodes' mappings.
	for i, be := range tb.Backends {
		if be == nil {
			continue
		}
		if n := len(be.CT.Conns()); n != 0 {
			t.Fatalf("backend %d leaked %d conntrack entries: %v", i, n, be.CT.Conns())
		}
	}
	if got := len(tb.CtrlSharded.Dump(vni)); got != 4 {
		t.Fatalf("controller has %d mappings after drain, want 4", got)
	}

	var sum bytes.Buffer
	sum.Write(tb.Chaos.TraceBytes())
	fmt.Fprintf(&sum, "\nA msgs=%d bytes=%d fatals=%d reconnects=%d\n", a.Msgs, a.Bytes, a.Fatals, a.Reconnects)
	fmt.Fprintf(&sum, "B msgs=%d bytes=%d fatals=%d reconnects=%d\n", b.Msgs, b.Bytes, b.Fatals, b.Reconnects)
	for i, l := range tb.Links {
		st := l.Stats()
		fmt.Fprintf(&sum, "link%d delivered=%d dropped=%d down=%d loss=%d\n",
			i, st.Delivered, st.Dropped, st.DroppedDown, st.DroppedLoss)
	}
	for i, be := range tb.Backends {
		if be == nil {
			continue
		}
		fmt.Fprintf(&sum, "backend%d fatals=%d cleanups=%d crashes=%d\n",
			i, be.Stats.FatalEvents, be.Stats.AsyncCleanups, be.Stats.Crashes)
	}
	fmt.Fprintf(&sum, "chaos transitions=%d loss=%d crashes=%d ctrl=%d\n",
		tb.Chaos.Stats.LinkTransitions, tb.Chaos.Stats.LossWindows,
		tb.Chaos.Stats.Crashes, len(tb.CtrlSharded.Dump(vni)))
	return sum.Bytes()
}

// TestChaosSoak is the capstone: two resilient streams and an idle victim
// on three hosts under a seeded random fault schedule plus a VM crash.
// Invariants: streams finish and recover, nothing leaks, no process hangs,
// and the entire run is byte-identical across same-seed executions.
func TestChaosSoak(t *testing.T) {
	first := soakSummary(t, 1702)
	second := soakSummary(t, 1702)
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed soak runs diverged:\n--- A ---\n%s\n--- B ---\n%s", first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty soak summary")
	}
}
