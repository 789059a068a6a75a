package cluster_test

// Transparent live migration, end to end: a VM with live RDMA connections
// moves between hosts while a client streams into it. The invariants are
// the ISSUE's acceptance bar — zero lost or duplicated completions across
// the move (exact WC counts and payload bytes), clean completion or full
// rollback under chaos, no leaked conntrack or controller state, and
// byte-identical same-seed runs.

import (
	"bytes"
	"fmt"
	"testing"

	"masq/internal/chaos"
	"masq/internal/cluster"
	"masq/internal/controller"
	"masq/internal/masq"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

const migMsgLen = 1024

// migPayload builds the distinctive 1 KiB payload of message i.
func migPayload(i int) []byte {
	b := make([]byte, migMsgLen)
	tag := []byte(fmt.Sprintf("msg-%03d|", i))
	for off := 0; off < migMsgLen; off += len(tag) {
		copy(b[off:], tag)
	}
	return b
}

// migRecvSummary is the server side of a migration stream: exact counts,
// so a lost completion (OK < total), a corrupted replay (Bad > 0), or a
// duplicated delivery (Extra) all surface.
type migRecvSummary struct {
	OK    int
	Bad   int
	Extra bool
}

// startMigStream streams total distinct 1 KiB messages client→server with
// the given inter-send gap, while a migration runs concurrently. The
// server pre-posts every receive, then counts completions and verifies
// each payload byte-for-byte; one extra poll at the end catches
// duplicates. wcTO bounds each completion wait — it must cover the
// migration blackout (and, on rollback, the suspend TTL).
func startMigStream(cp *cluster.ConnectedPair, total int, gap, wcTO simtime.Duration) (*simtime.Event[int], *simtime.Event[migRecvSummary]) {
	tb := cp.TB
	sendDone := simtime.NewEvent[int](tb.Eng)
	recvDone := simtime.NewEvent[migRecvSummary](tb.Eng)
	tb.Eng.Spawn("mig-server", func(p *simtime.Proc) {
		s := cp.Server
		var sum migRecvSummary
		for i := 0; i < total; i++ {
			if err := s.QP.PostRecv(p, verbs.RecvWR{
				WRID: uint64(i), Addr: s.Buf + uint64(i)*migMsgLen,
				LKey: s.MR.LKey(), Len: migMsgLen,
			}); err != nil {
				recvDone.Trigger(sum)
				return
			}
		}
		for i := 0; i < total; i++ {
			wc, ok := s.RCQ.WaitTimeout(p, wcTO)
			if !ok {
				break
			}
			if wc.Status != verbs.WCSuccess || wc.ByteLen != migMsgLen {
				sum.Bad++
				continue
			}
			got := make([]byte, migMsgLen)
			cp.ServerNode.Read(s.Buf+wc.WRID*migMsgLen, got)
			if !bytes.Equal(got, migPayload(int(wc.WRID))) {
				sum.Bad++
				continue
			}
			sum.OK++
		}
		if _, ok := s.RCQ.WaitTimeout(p, simtime.Ms(5)); ok {
			sum.Extra = true
		}
		recvDone.Trigger(sum)
	})
	tb.Eng.Spawn("mig-client", func(p *simtime.Proc) {
		c := cp.Client
		p.Sleep(simtime.Us(50)) // let the server's receives land first
		for i := 0; i < total; i++ {
			cp.ClientNode.Write(c.Buf+uint64(i)*migMsgLen, migPayload(i))
			if err := c.QP.PostSend(p, verbs.SendWR{
				WRID: uint64(i), Op: verbs.WRSend,
				LocalAddr: c.Buf + uint64(i)*migMsgLen, LKey: c.MR.LKey(), Len: migMsgLen,
			}); err != nil {
				sendDone.Trigger(-1)
				return
			}
			if gap > 0 {
				p.Sleep(gap)
			}
		}
		okCnt := 0
		for i := 0; i < total; i++ {
			wc, ok := c.SCQ.WaitTimeout(p, wcTO)
			if !ok {
				break
			}
			if wc.Status == verbs.WCSuccess {
				okCnt++
			}
		}
		sendDone.Trigger(okCnt)
	})
	return sendDone, recvDone
}

// threeHostPair is a connected MasQ pair with a spare host to migrate onto.
func threeHostPair(t *testing.T, cfg cluster.Config) *cluster.ConnectedPair {
	t.Helper()
	cfg.Hosts = 3
	cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestLiveMigrateStreamingExactCompletions is the tentpole invariant: a
// client streams 40 distinct messages into a server whose VM live-migrates
// mid-stream. Every send must complete exactly once, every payload must
// arrive intact on the destination host, and no completion may be
// duplicated — the PSN windows replayed across the move, not re-invented.
func TestLiveMigrateStreamingExactCompletions(t *testing.T) {
	cp := threeHostPair(t, cluster.DefaultConfig())
	tb := cp.TB
	const total = 40
	sendDone, recvDone := startMigStream(cp, total, simtime.Us(100), simtime.Ms(300))

	var rep *cluster.MigrateReport
	migDone := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("migrator", func(p *simtime.Proc) {
		p.Sleep(simtime.Ms(1)) // mid-stream: ~10 of 40 messages sent
		var err error
		rep, err = tb.LiveMigrateNode(p, cp.ServerNode, 2, cluster.MigrateOpts{})
		migDone.Trigger(err)
	})
	tb.Eng.Run()

	if err := migDone.Value(); err != nil {
		t.Fatalf("live migration failed: %v", err)
	}
	if rep.RolledBack {
		t.Fatal("migration rolled back without an error")
	}
	if cp.ServerNode.Host != tb.Hosts[2] {
		t.Fatal("server VM did not move to host 2")
	}
	if rep.Blackout <= 0 || rep.Blackout > simtime.Ms(5) {
		t.Fatalf("blackout = %v, want small and positive", rep.Blackout)
	}
	if rep.QPs != 1 || rep.MRs != 1 || rep.Conns != 1 {
		t.Fatalf("capture = %d QPs / %d MRs / %d conns, want 1/1/1", rep.QPs, rep.MRs, rep.Conns)
	}

	// Zero lost, zero duplicated, zero corrupted.
	if got := sendDone.Value(); got != total {
		t.Fatalf("client saw %d successful send completions, want %d", got, total)
	}
	sum := recvDone.Value()
	if sum.OK != total || sum.Bad != 0 {
		t.Fatalf("server recv summary = %+v, want OK=%d Bad=0", sum, total)
	}
	if sum.Extra {
		t.Fatal("server saw a duplicated completion after the stream drained")
	}

	// The connection state moved, not leaked: the source host holds no
	// conntrack rows, the destination holds the migrated one, the client's
	// row survived the rename in place.
	if n := len(tb.Backend(1).CT.Conns()); n != 0 {
		t.Fatalf("source backend leaked %d conntrack entries", n)
	}
	if n := len(tb.Backend(2).CT.Conns()); n != 1 {
		t.Fatalf("destination backend has %d conntrack entries, want 1", n)
	}
	if n := len(tb.Backend(0).CT.Conns()); n != 1 {
		t.Fatalf("client backend has %d conntrack entries, want 1", n)
	}

	// The controller republished the endpoint under the destination host.
	table := tb.CtrlSharded.Dump(vni)
	if len(table) != 2 {
		t.Fatalf("controller has %d mappings, want 2", len(table))
	}
	k, m, ok := cp.ServerNode.Provider.(*masq.Frontend).VBond().Registration()
	if !ok {
		t.Fatal("migrated node holds no registration")
	}
	if want := tb.Backend(2).HostMapping(); m != want || table[k] != want {
		t.Fatalf("server mapping = %+v (table %+v), want destination identity %+v", m, table[k], want)
	}

	// The peer machinery fired: a suspend quiesced the client, the move
	// renamed its address vector in place and resumed it.
	cb := tb.Backend(0)
	if cb.Stats.MigrSuspends == 0 || cb.Stats.MigrSuspendedQPs == 0 {
		t.Fatalf("client backend never quiesced: %+v", cb.Stats)
	}
	if cb.Stats.MigrRenames == 0 || cb.Stats.MigrResumes == 0 {
		t.Fatalf("client backend never renamed/resumed: suspends=%d renames=%d resumes=%d",
			cb.Stats.MigrSuspends, cb.Stats.MigrRenames, cb.Stats.MigrResumes)
	}
	if tb.Backend(1).Stats.MigrOut != 1 || tb.Backend(2).Stats.MigrIn != 1 {
		t.Fatalf("MigrOut/MigrIn = %d/%d, want 1/1",
			tb.Backend(1).Stats.MigrOut, tb.Backend(2).Stats.MigrIn)
	}
	if cs := tb.CtrlSharded.Primary(0).Stats; cs.Suspends != 1 || cs.Moves != 1 {
		t.Fatalf("controller suspends/moves = %d/%d, want 1/1", cs.Suspends, cs.Moves)
	}
}

// TestLiveMigrateSameHostNoOp: migrating onto the VM's own host is a no-op
// — nothing frozen, nothing re-registered, no controller traffic.
func TestLiveMigrateSameHostNoOp(t *testing.T) {
	cp := threeHostPair(t, cluster.DefaultConfig())
	tb := cp.TB
	updatesBefore := tb.CtrlSharded.Primary(0).Stats.Updates
	var rep *cluster.MigrateReport
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("noop", func(p *simtime.Proc) {
		var err error
		rep, err = tb.LiveMigrateNode(p, cp.ServerNode, 1, cluster.MigrateOpts{})
		done.Trigger(err)
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if rep.PreCopyRounds != 0 || rep.Blackout != 0 || rep.RolledBack {
		t.Fatalf("same-host migration did work: %+v", rep)
	}
	if tb.Backend(1).Stats.MigrOut != 0 || tb.CtrlSharded.Primary(0).Stats.Suspends != 0 {
		t.Fatal("same-host migration touched the freeze machinery")
	}
	if tb.CtrlSharded.Primary(0).Stats.Updates != updatesBefore {
		t.Fatal("same-host migration re-registered with the controller")
	}
}

// TestLiveMigrateRefusedModes: transparent migration needs a MasQ VF/PF
// node. Shared-carrier placements multiplex host-level connections that
// cannot follow one VM; passthrough VFs cannot follow at all. A refusal
// must leave the running connection untouched.
func TestLiveMigrateRefusedModes(t *testing.T) {
	for _, mode := range []cluster.Mode{cluster.ModeMasQShared, cluster.ModeSRIOV} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := cluster.DefaultConfig()
			cfg.Hosts = 3
			cp, err := cluster.NewConnectedPair(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			tb := cp.TB
			dumpBefore := len(tb.CtrlSharded.Dump(vni))
			done := simtime.NewEvent[error](tb.Eng)
			tb.Eng.Spawn("refused", func(p *simtime.Proc) {
				_, err := tb.LiveMigrateNode(p, cp.ServerNode, 2, cluster.MigrateOpts{})
				done.Trigger(err)
			})
			tb.Eng.Run()
			if done.Value() == nil {
				t.Fatalf("%v live migration was not refused", mode)
			}
			if cp.ServerNode.Host != tb.Hosts[1] {
				t.Fatal("refused migration moved the VM")
			}
			if got := len(tb.CtrlSharded.Dump(vni)); got != dumpBefore {
				t.Fatalf("refusal changed controller state: %d -> %d mappings", dumpBefore, got)
			}
			// The pair still moves data.
			var wcOK bool
			tb.Eng.Spawn("post-refusal", func(p *simtime.Proc) {
				c := cp.Client
				peer := cp.Server.Info()
				if err := c.QP.PostSend(p, verbs.SendWR{
					WRID: 1, Op: verbs.WRWrite, LocalAddr: c.Buf, LKey: c.MR.LKey(),
					Len: 4096, RemoteAddr: peer.Addr, RKey: peer.RKey,
				}); err != nil {
					return
				}
				wc, ok := c.SCQ.WaitTimeout(p, simtime.Ms(50))
				wcOK = ok && wc.Status == verbs.WCSuccess
			})
			tb.Eng.Run()
			if !wcOK {
				t.Fatal("connection broken after a refused migration")
			}
		})
	}
}

// TestMigrateNodeRefusalLeavesStateUntouched is the satellite fix for the
// application-assisted path: a migration refused because guest memory is
// still pinned (registered MRs) must leave the node, its vBond
// registration, the controller table, and the data path exactly as they
// were — and a same-host migration must be a no-op, not a re-register.
func TestMigrateNodeRefusalLeavesStateUntouched(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 3
	cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	providerBefore := cp.ServerNode.Provider
	updatesBefore := tb.CtrlSharded.Primary(0).Stats.Updates
	tableBefore := tb.CtrlSharded.Dump(vni)

	// Refusal: the endpoint's MR is still registered (pinned).
	if err := tb.MigrateNode(cp.ServerNode, 2); err == nil {
		t.Fatal("migration accepted while MRs were pinned")
	}
	if cp.ServerNode.Host != tb.Hosts[1] || cp.ServerNode.Provider != providerBefore {
		t.Fatal("refused migration mutated the node")
	}
	if tb.CtrlSharded.Primary(0).Stats.Updates != updatesBefore {
		t.Fatal("refused migration touched the controller")
	}
	k, m, ok := cp.ServerNode.Provider.(*masq.Frontend).VBond().Registration()
	if !ok || tableBefore[k] != m {
		t.Fatal("refused migration disturbed the vBond registration")
	}
	if got := len(tb.Backend(1).CT.Conns()); got != 1 {
		t.Fatalf("refused migration disturbed conntrack: %d entries, want 1", got)
	}
	// The connection still works after the refusal.
	var wcOK bool
	tb.Eng.Spawn("post-refusal", func(p *simtime.Proc) {
		c := cp.Client
		peer := cp.Server.Info()
		if err := c.QP.PostSend(p, verbs.SendWR{
			WRID: 1, Op: verbs.WRWrite, LocalAddr: c.Buf, LKey: c.MR.LKey(),
			Len: 4096, RemoteAddr: peer.Addr, RKey: peer.RKey,
		}); err != nil {
			return
		}
		wc, ok := c.SCQ.WaitTimeout(p, simtime.Ms(50))
		wcOK = ok && wc.Status == verbs.WCSuccess
	})
	tb.Eng.Run()
	if !wcOK {
		t.Fatal("connection broken after a refused migration")
	}

	// Same-host migration: a documented no-op, not a re-register.
	updatesBefore = tb.CtrlSharded.Primary(0).Stats.Updates
	if err := tb.MigrateNode(cp.ServerNode, 1); err != nil {
		t.Fatalf("same-host migration errored: %v", err)
	}
	if cp.ServerNode.Provider != providerBefore {
		t.Fatal("same-host migration rebuilt the frontend")
	}
	if tb.CtrlSharded.Primary(0).Stats.Updates != updatesBefore {
		t.Fatal("same-host migration re-registered with the controller")
	}
}

// TestLiveMigrateLeaseAndPoolFollow: after the move, lease renewal keeps
// the endpoint alive from the DESTINATION host (the mapping would expire
// under its 10ms TTL otherwise), and the source host's warm QP pool for
// the tenant is flushed — staged fast-path state must not outlive the VM.
func TestLiveMigrateLeaseAndPoolFollow(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 3
	cfg.Masq.QPPoolSize = 4
	cfg.Masq.LeaseRenewEvery = simtime.Ms(1)
	cfg.Ctrl.LeaseTTL = simtime.Ms(10)
	cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	base := tb.Eng.Now() // the drained setup leaves the clock well past zero
	tb.StartLeases(base.Add(simtime.Ms(80)))

	migDone := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("migrator", func(p *simtime.Proc) {
		p.Sleep(simtime.Ms(5))
		_, err := tb.LiveMigrateNode(p, cp.ServerNode, 2, cluster.MigrateOpts{})
		migDone.Trigger(err)
	})
	// Snapshot the table many lease-TTLs after the move, while renewals
	// still run: only a destination-side renewal keeps the entry alive.
	var table map[controller.Key]controller.Mapping
	tb.Eng.At(base.Add(simtime.Ms(60)), func() {
		table = tb.CtrlSharded.Dump(vni)
	})
	tb.Eng.Run()
	if err := migDone.Value(); err != nil {
		t.Fatalf("live migration failed: %v", err)
	}
	if len(table) != 2 {
		t.Fatalf("controller has %d mappings 50ms after the move, want 2", len(table))
	}
	k, m, ok := cp.ServerNode.Provider.(*masq.Frontend).VBond().Registration()
	if !ok {
		t.Fatal("migrated node holds no registration")
	}
	if want := tb.Backend(2).HostMapping(); m != want || table[k] != want {
		t.Fatalf("lease renewal did not follow: mapping %+v, table %+v, want %+v", m, table[k], want)
	}
	if tb.Backend(1).Stats.PoolFlushes == 0 {
		t.Fatal("source host's warm QP pool survived the migration")
	}
}

// TestLiveMigrateDuringLinkFlap: the source host's uplink flaps throughout
// the migration window. The controller channel is a separate model, so the
// migration itself must complete; the stream rides the flap on RDMA
// retransmission plus the migration's own PSN replay — still exactly once.
func TestLiveMigrateDuringLinkFlap(t *testing.T) {
	cp := threeHostPair(t, cluster.DefaultConfig())
	tb := cp.TB
	base := tb.Eng.Now()
	tb.Chaos.Arm(chaos.Plan{Seed: 7, Events: []chaos.Event{
		chaos.Flap(tb.HostLink(1), base.Add(simtime.Ms(1)), base.Add(simtime.Ms(12)),
			simtime.Ms(2), simtime.Us(500)),
	}})
	const total = 40
	sendDone, recvDone := startMigStream(cp, total, simtime.Us(200), simtime.Ms(300))
	var rep *cluster.MigrateReport
	migDone := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("migrator", func(p *simtime.Proc) {
		p.Sleep(simtime.Ms(2)) // inside the flap window
		var err error
		rep, err = tb.LiveMigrateNode(p, cp.ServerNode, 2, cluster.MigrateOpts{})
		migDone.Trigger(err)
	})
	tb.Eng.Run()
	if err := migDone.Value(); err != nil {
		t.Fatalf("migration under link flap failed: %v", err)
	}
	if rep.RolledBack || cp.ServerNode.Host != tb.Hosts[2] {
		t.Fatal("migration under link flap did not complete onto host 2")
	}
	if got := sendDone.Value(); got != total {
		t.Fatalf("client saw %d send completions, want %d", got, total)
	}
	sum := recvDone.Value()
	if sum.OK != total || sum.Bad != 0 || sum.Extra {
		t.Fatalf("server recv summary = %+v, want OK=%d Bad=0 Extra=false", sum, total)
	}
	if tb.Chaos.Stats.LinkTransitions == 0 {
		t.Fatal("the flap never fired — the test exercised nothing")
	}
	if n := len(tb.Backend(1).CT.Conns()); n != 0 {
		t.Fatalf("source backend leaked %d conntrack entries", n)
	}
}

// TestLiveMigrateCtrlOutageRollsBack: the controller goes dark after the
// freeze announcement but before the commit. The Move RPC fails, the VM
// must be cleanly re-adopted at the source — original QPNs, reactivated
// vBond, no half-migrated state — and the suspended peer must wake via the
// suspend TTL (the resume push is lost too). The stream still delivers
// every message exactly once, just later.
func TestLiveMigrateCtrlOutageRollsBack(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 3
	cfg.Masq.PushDown = true
	cfg.Masq.LeaseRenewEvery = simtime.Ms(2)
	cfg.Ctrl.LeaseTTL = simtime.Ms(30)
	cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	base := tb.Eng.Now()
	tb.StartLeases(base.Add(simtime.Ms(150)))

	// Shape the timeline so the outage window separates Suspend from Move:
	// pre-copy takes 15ms (ends ~20ms: Suspend, controller still up), the
	// stop-copy of the half-image dirty set takes ~7.5ms more (Move at
	// ~27.5ms — dark). The controller is down for [23ms, 45ms).
	image := float64(cp.ServerNode.VM.GPA.MappedBytes())
	opts := cluster.MigrateOpts{
		CopyBandwidth:     image / 0.015,
		DirtyRate:         image / 0.015 / 2,
		StopCopyThreshold: uint64(image / 2),
	}
	tb.CrashController(base.Add(simtime.Ms(23)), base.Add(simtime.Ms(45)))

	const total = 40
	sendDone, recvDone := startMigStream(cp, total, simtime.Us(750), simtime.Ms(300))
	var rep *cluster.MigrateReport
	migDone := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("migrator", func(p *simtime.Proc) {
		p.Sleep(simtime.Ms(5))
		var err error
		rep, err = tb.LiveMigrateNode(p, cp.ServerNode, 2, opts)
		migDone.Trigger(err)
	})
	var table map[controller.Key]controller.Mapping
	tb.Eng.At(base.Add(simtime.Ms(120)), func() {
		table = tb.CtrlSharded.Dump(vni)
	})
	tb.Eng.Run()

	if migDone.Value() == nil {
		t.Fatal("migration with a dark commit point reported success")
	}
	if rep == nil || !rep.RolledBack {
		t.Fatalf("migration did not roll back: %+v", rep)
	}
	if cp.ServerNode.Host != tb.Hosts[1] {
		t.Fatal("rolled-back VM is not on its source host")
	}

	// Exactly-once survives the rollback: the peer resumes (suspend TTL —
	// the resume push was lost with the controller) and replays.
	if got := sendDone.Value(); got != total {
		t.Fatalf("client saw %d send completions after rollback, want %d", got, total)
	}
	sum := recvDone.Value()
	if sum.OK != total || sum.Bad != 0 || sum.Extra {
		t.Fatalf("server recv summary = %+v, want OK=%d Bad=0 Extra=false", sum, total)
	}

	// Nothing half-migrated, nothing leaked: the destination was evicted,
	// the source re-adopted, and the reconverged controller table holds
	// the source identity again.
	if n := len(tb.Backend(2).CT.Conns()); n != 0 {
		t.Fatalf("destination leaked %d conntrack entries after rollback", n)
	}
	if n := len(tb.Backend(1).CT.Conns()); n != 1 {
		t.Fatalf("source has %d conntrack entries after rollback, want 1", n)
	}
	if tb.Backend(1).Stats.MigrRollbacks != 1 {
		t.Fatalf("source rollbacks = %d, want 1", tb.Backend(1).Stats.MigrRollbacks)
	}
	if tb.Backend(0).Stats.MigrSuspendExpiry == 0 {
		t.Fatal("the peer's suspend TTL never fired — how did it resume?")
	}
	if len(table) != 2 {
		t.Fatalf("controller has %d mappings after reconvergence, want 2", len(table))
	}
	k, m, ok := cp.ServerNode.Provider.(*masq.Frontend).VBond().Registration()
	if !ok {
		t.Fatal("rolled-back node holds no registration")
	}
	if want := tb.Backend(1).HostMapping(); m != want || table[k] != want {
		t.Fatalf("rolled-back mapping = %+v (table %+v), want source identity %+v", m, table[k], want)
	}
}

// migChaosDigest runs one migration-under-chaos scenario — a seeded random
// loss/flap plan plus a scheduled NodeMigrate event through the chaos
// injector — and digests everything observable. Two same-seed runs must be
// byte-identical.
func migChaosDigest(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 3
	cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	base := tb.Eng.Now()
	horizon := simtime.Ms(40)
	plan := chaos.RandomPlan(seed, tb.Links, horizon, 4, 0.15)
	// RandomPlan draws times from zero; the drained setup left the clock
	// past that, so shift the whole schedule to start now.
	for i := range plan.Events {
		plan.Events[i].At = plan.Events[i].At.Add(simtime.Duration(base))
		if plan.Events[i].Until != 0 {
			plan.Events[i].Until = plan.Events[i].Until.Add(simtime.Duration(base))
		}
	}
	// Server node has index 1 (NewConnectedPair creates client then server).
	plan.Events = append(plan.Events, chaos.Migrate(1, 2, base.Add(simtime.Ms(8))))
	tb.Chaos.Arm(plan)

	const total = 40
	sendDone, recvDone := startMigStream(cp, total, simtime.Us(400), simtime.Ms(300))
	tb.Eng.Run()

	if !sendDone.Triggered() || !recvDone.Triggered() {
		t.Fatalf("stream stuck (pending procs: %v)", tb.Eng.PendingProcs())
	}
	if tb.Chaos.Stats.Migrations != 1 {
		t.Fatalf("chaos fired %d migrations, want 1", tb.Chaos.Stats.Migrations)
	}
	// Clean completion or clean rollback — never a half-moved VM.
	onSrc, onDst := cp.ServerNode.Host == tb.Hosts[1], cp.ServerNode.Host == tb.Hosts[2]
	if !onSrc && !onDst {
		t.Fatalf("server VM on unexpected host %v", cp.ServerNode.Host)
	}
	sum := recvDone.Value()
	if got := sendDone.Value(); got != total || sum.OK != total || sum.Bad != 0 || sum.Extra {
		t.Fatalf("stream not exactly-once under chaos: sends=%d recv=%+v", sendDone.Value(), sum)
	}
	var sb bytes.Buffer
	sb.Write(tb.Chaos.TraceBytes())
	fmt.Fprintf(&sb, "\nsends=%d recv=%+v host=%v\n", sendDone.Value(), sum, onDst)
	for i := 0; i < cfg.Hosts; i++ {
		be := tb.Backend(i)
		fmt.Fprintf(&sb, "backend%d out=%d in=%d rb=%d susp=%d ren=%d res=%d ttl=%d ct=%d\n",
			i, be.Stats.MigrOut, be.Stats.MigrIn, be.Stats.MigrRollbacks,
			be.Stats.MigrSuspends, be.Stats.MigrRenames, be.Stats.MigrResumes,
			be.Stats.MigrSuspendExpiry, len(be.CT.Conns()))
	}
	cs := tb.CtrlSharded.Primary(0).Stats
	fmt.Fprintf(&sb, "ctrl suspends=%d moves=%d table=%d\n", cs.Suspends, cs.Moves, len(tb.CtrlSharded.Dump(vni)))
	return sb.Bytes()
}

// TestLiveMigrateChaosDeterminism: the migration soak is a pure function
// of its seed — two same-seed runs produce byte-identical digests (chaos
// trace, stream counts, per-backend migration counters, controller table).
func TestLiveMigrateChaosDeterminism(t *testing.T) {
	a := migChaosDigest(t, 90125)
	b := migChaosDigest(t, 90125)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed migration runs diverged:\n--- A ---\n%s\n--- B ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty digest")
	}
}
