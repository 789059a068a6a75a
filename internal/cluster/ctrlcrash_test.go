package cluster_test

// The controller-crash soak: the SDN controller dies mid-workload, losing
// its mapping table and pending pushes, while a link cut forces a stream to
// re-establish its connection during the outage. The edge must carry the
// system: grace mode serves the rename from the still-fresh cache, lease
// renewals detect the restart (epoch bump), re-registration reconverges the
// controller's table to exactly the union of live vBond registrations, and
// the grace connection is re-validated once the controller returns. Two
// same-seed runs — with and without the crash schedule — must each be
// byte-identical.

import (
	"bytes"
	"fmt"
	"testing"

	"masq/internal/apps/perftest"
	"masq/internal/apps/reconnect"
	"masq/internal/chaos"
	"masq/internal/cluster"
	"masq/internal/controller"
	"masq/internal/masq"
	"masq/internal/packet"
	"masq/internal/simtime"
)

// ctrlCrashSummary runs the controller-crash soak once and returns a
// deterministic digest. With crash=false the same workload runs without the
// controller outage (the control arm of the determinism check).
func ctrlCrashSummary(t *testing.T, seed int64, crash bool) []byte {
	t.Helper()
	cfg := shortRetry(cluster.DefaultConfig())
	cfg.Hosts = 3
	cfg.Masq.PushDown = true
	cfg.Masq.GraceTTL = simtime.Ms(30)
	cfg.Masq.LeaseRenewEvery = simtime.Ms(1)
	cfg.Ctrl.LeaseTTL = simtime.Ms(20)
	cfg.Ctrl.Seed = seed
	tb := cluster.New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	mk := func(host int, last byte) *cluster.Node {
		n, err := tb.NewNode(cluster.ModeMasQ, host, vni, packet.NewIP(192, 168, 11, last))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	c0, s0 := mk(0, 1), mk(1, 2) // stream A: host0 → host1, killed by the link cut
	c1, s1 := mk(2, 3), mk(1, 4) // stream B: host2 → host1, rides out the outage
	nodes := []*cluster.Node{c0, s0, c1, s1}

	horizon := simtime.Ms(50)
	// The controller is dark for [15ms, 25ms). The link cut [16ms, 18ms)
	// exhausts stream A's retransmissions, so its reconnect — and the
	// RConnrename it needs — lands inside the controller outage: only the
	// grace path can serve it.
	if crash {
		tb.CrashController(simtime.Time(simtime.Ms(15)), simtime.Time(simtime.Ms(25)))
	}
	tb.Chaos.Arm(chaos.Plan{Seed: seed, Events: chaos.Outage(tb.HostLink(0),
		simtime.Time(simtime.Ms(16)), simtime.Time(simtime.Ms(18)))})
	tb.StartLeases(simtime.Time(horizon))

	pol := reconnect.Policy{
		MaxAttempts: 12,
		Backoff:     simtime.Us(500),
		MaxBackoff:  simtime.Ms(4),
		DialTimeout: simtime.Ms(5),
	}
	resA := perftest.StartResilientWriteBW(tb, c0, s0, 7600, 8192, horizon, pol)
	resB := perftest.StartResilientWriteBW(tb, c1, s1, 7601, 8192, horizon, pol)

	// The reconvergence snapshot is taken at 45ms — 20ms after the restart,
	// with lease renewals still running — because the engine drains well
	// past the horizon (lingering reconnect timers), by which time the
	// leases have lazily expired and Dump would report an empty table.
	var table map[controller.Key]controller.Mapping
	caches := make([]map[controller.Key]controller.Mapping, cfg.Hosts)
	tb.Eng.At(simtime.Time(simtime.Ms(45)), func() {
		table = tb.CtrlSharded.Dump(vni)
		for i, be := range tb.Backends {
			if be != nil {
				caches[i] = be.CacheSnapshot()
			}
		}
	})
	tb.Eng.Run()

	if !resA.Triggered() || !resB.Triggered() {
		t.Fatalf("streams stuck (pending procs: %v)", tb.Eng.PendingProcs())
	}
	a, b := resA.Value(), resB.Value()
	if a.Msgs == 0 || b.Msgs == 0 {
		t.Fatalf("a stream moved no data: A=%+v B=%+v", a, b)
	}
	if a.GaveUp || b.GaveUp {
		t.Fatalf("a stream gave up reconnecting: A=%+v B=%+v", a, b)
	}

	// Reconvergence: the controller's table must equal the union of live
	// vBond registrations — no lost endpoint, no resurrected ghost.
	if len(table) != len(nodes) {
		t.Fatalf("controller has %d mappings at 45ms, want %d", len(table), len(nodes))
	}
	for _, n := range nodes {
		k, m, ok := n.Provider.(*masq.Frontend).VBond().Registration()
		if !ok {
			t.Fatalf("node %s holds no registration", n.Name)
		}
		if got, ok := table[k]; !ok || got != m {
			t.Fatalf("controller table diverged for %s: got %+v ok=%v want %+v",
				n.Name, got, ok, m)
		}
	}
	// No stale mapping survives: every cache entry agrees with the
	// authoritative table (a stale-epoch push that slipped through the
	// fence would surface here).
	for i, cache := range caches {
		for k, m := range cache {
			if got, ok := table[k]; !ok || got != m {
				t.Fatalf("backend %d caches stale mapping %+v for %+v", i, m, k)
			}
		}
	}

	var grace, reval, epochBumps uint64
	for _, be := range tb.Backends {
		if be == nil {
			continue
		}
		grace += be.Stats.GraceRenames
		reval += be.Stats.GraceRevalidated
		epochBumps += be.Stats.EpochBumps
	}
	ctrl := tb.CtrlSharded.Primary(0) // one controller shard
	if crash {
		if ctrl.Epoch() != 2 || ctrl.Stats.Crashes != 1 || ctrl.Stats.Restarts != 1 {
			t.Fatalf("controller epoch/crashes/restarts = %d/%d/%d, want 2/1/1",
				ctrl.Epoch(), ctrl.Stats.Crashes, ctrl.Stats.Restarts)
		}
		if grace == 0 {
			t.Fatal("no rename was grace-served during the outage")
		}
		if reval == 0 {
			t.Fatal("no grace connection was re-validated after the restart")
		}
		if epochBumps == 0 {
			t.Fatal("no backend observed the epoch bump")
		}
		for i, be := range tb.Backends {
			if be != nil && be.Epoch() != ctrl.Epoch() {
				t.Fatalf("backend %d stuck at epoch %d, controller at %d",
					i, be.Epoch(), ctrl.Epoch())
			}
		}
	} else {
		if ctrl.Epoch() != 1 || grace != 0 {
			t.Fatalf("control arm saw epoch %d, grace %d; want 1, 0", ctrl.Epoch(), grace)
		}
	}

	var sum bytes.Buffer
	sum.Write(tb.Chaos.TraceBytes())
	fmt.Fprintf(&sum, "\nA msgs=%d bytes=%d fatals=%d reconnects=%d\n", a.Msgs, a.Bytes, a.Fatals, a.Reconnects)
	fmt.Fprintf(&sum, "B msgs=%d bytes=%d fatals=%d reconnects=%d\n", b.Msgs, b.Bytes, b.Fatals, b.Reconnects)
	cs := ctrl.Stats
	fmt.Fprintf(&sum, "ctrl epoch=%d crashes=%d restarts=%d renewals=%d expired=%d lost=%d wiped=%d hwm=%d table=%d\n",
		ctrl.Epoch(), cs.Crashes, cs.Restarts, cs.Renewals, cs.LeaseExpired,
		cs.LostUpdates, cs.NotifyWiped, cs.NotifyQueueHWM, len(table))
	for i, be := range tb.Backends {
		if be == nil {
			continue
		}
		fmt.Fprintf(&sum, "backend%d epoch=%d grace=%d/%d reval=%d resets=%d fenced=%d gaps=%d resyncs=%d renewals=%d/%d bumps=%d\n",
			i, be.Epoch(), be.Stats.GraceRenames, be.Stats.GraceExpired,
			be.Stats.GraceRevalidated, be.Stats.GraceResets, be.Stats.FencedNotifies,
			be.Stats.NotifyGaps, be.Stats.Resyncs,
			be.Stats.LeaseRenewals, be.Stats.LeaseRenewFailures, be.Stats.EpochBumps)
	}
	return sum.Bytes()
}

// TestCtrlCrashSoak is the controller-crash capstone: the control plane
// dies and restarts empty under live traffic and a concurrent link cut.
// Invariants: streams recover, renames are grace-served during the outage
// and re-validated after it, the controller's table reconverges to exactly
// the live registrations at the next epoch, no backend caches a stale
// mapping, and both the crash and no-crash schedules are pure functions of
// the seed.
func TestCtrlCrashSoak(t *testing.T) {
	withA := ctrlCrashSummary(t, 4711, true)
	withB := ctrlCrashSummary(t, 4711, true)
	if !bytes.Equal(withA, withB) {
		t.Fatalf("same-seed crash runs diverged:\n--- A ---\n%s\n--- B ---\n%s", withA, withB)
	}
	withoutA := ctrlCrashSummary(t, 4711, false)
	withoutB := ctrlCrashSummary(t, 4711, false)
	if !bytes.Equal(withoutA, withoutB) {
		t.Fatalf("same-seed no-crash runs diverged:\n--- A ---\n%s\n--- B ---\n%s", withoutA, withoutB)
	}
	if bytes.Equal(withA, withoutA) {
		t.Fatal("crash and no-crash digests are identical — the outage had no observable effect")
	}
	if len(withA) == 0 {
		t.Fatal("empty soak summary")
	}
}

// TestRandomPlanWithCtrlCrashes checks the chaos generator's controller-
// crash option: the base plan is byte-for-byte unchanged (existing seeds
// stay reproducible) and the added outages are in-horizon crash/restart
// pairs that actually fire.
func TestRandomPlanWithCtrlCrashes(t *testing.T) {
	cfg := cluster.DefaultConfig()
	tb := cluster.New(cfg)
	horizon := simtime.Ms(40)
	base := chaos.RandomPlan(77, tb.Links, horizon, 5, 0.3)
	ext := chaos.RandomPlan(77, tb.Links, horizon, 5, 0.3, chaos.WithCtrlCrashes(2))
	if len(ext.Events) != len(base.Events)+2 {
		t.Fatalf("extended plan has %d events, want %d", len(ext.Events), len(base.Events)+2)
	}
	crashes := 0
	for _, ev := range ext.Events {
		if ev.Kind == chaos.CtrlCrash {
			crashes++
			if ev.At <= 0 || simtime.Duration(ev.Until) > horizon || ev.Until <= ev.At {
				t.Fatalf("bad outage window [%v, %v)", ev.At, ev.Until)
			}
		}
	}
	if crashes != 2 {
		t.Fatalf("extended plan has %d ctrl crashes, want 2", crashes)
	}
	// Same seed, same options → identical plan (purity).
	again := chaos.RandomPlan(77, tb.Links, horizon, 5, 0.3, chaos.WithCtrlCrashes(2))
	if fmt.Sprintf("%+v", ext.Events) != fmt.Sprintf("%+v", again.Events) {
		t.Fatal("same-seed plans with options diverged")
	}
	tb.Chaos.Arm(ext)
	tb.Eng.Run()
	if tb.Chaos.Stats.CtrlCrashes != 2 || tb.Chaos.Stats.CtrlRestarts != 2 {
		t.Fatalf("applied %d crashes / %d restarts, want 2/2",
			tb.Chaos.Stats.CtrlCrashes, tb.Chaos.Stats.CtrlRestarts)
	}
	if tb.CtrlSharded.MaxEpoch() != 3 {
		t.Fatalf("controller epoch %d after two restarts, want 3", tb.CtrlSharded.MaxEpoch())
	}
}
