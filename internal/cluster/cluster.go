// Package cluster assembles complete testbeds: hosts with RNICs wired by a
// direct link or a ToR switch, the VXLAN overlay fabric, the SDN
// controller, MasQ backends, and workload nodes running under any of the
// four virtualization systems of the paper's evaluation (Fig. 7):
// Host-RDMA, SR-IOV passthrough, MasQ (VF or PF placement), and FreeFlow
// containers. It also provides the Fig. 1 connection workflow (resource
// setup, out-of-band exchange, QP state transitions) that every example
// and benchmark builds on.
package cluster

import (
	"fmt"

	"masq/internal/baselines/freeflow"
	"masq/internal/baselines/hostrdma"
	"masq/internal/baselines/sriov"
	"masq/internal/chaos"
	"masq/internal/controller"
	"masq/internal/hyper"
	"masq/internal/masq"
	"masq/internal/mem"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simnet"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
)

// Mode selects the virtualization system a node runs under.
type Mode int

// Node modes.
const (
	ModeHost Mode = iota
	ModeSRIOV
	ModeMasQ   // VF placement (default MasQ)
	ModeMasQPF // PF placement (Fig. 9)
	ModeFreeFlow
	ModeMasQShared // VF placement with shared host connections
)

var modeNames = [...]string{"host-rdma", "sr-iov", "masq", "masq-pf", "freeflow", "masq-shared"}

func (m Mode) String() string {
	if m >= 0 && int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config parameterizes a testbed. Zero fields take the paper's defaults.
type Config struct {
	Hosts    int
	HostMem  uint64
	VMMem    uint64
	RNIC     rnic.Params
	Hyper    hyper.Params
	Overlay  overlay.Params
	Masq     masq.Params
	FreeFlow freeflow.Params
	Ctrl     controller.Params
	// CtrlFault arms the controller's fault-injection plan (unavailability
	// windows, dropped replies) for the whole testbed run.
	CtrlFault controller.FaultPlan
	// Chaos arms a network/VM fault schedule on the testbed's injector as
	// soon as the topology is built. Plans referencing links or nodes can
	// also be armed later via Testbed.Chaos.Arm.
	Chaos chaos.Plan
	PropDelay simtime.Duration
	SwitchFwd simtime.Duration

	// Shards runs the testbed on a ShardedEngine: host i (its
	// RNIC, vswitch, VMs, procs) lives on shard i % Shards, while the ToR
	// switch, fabric, and chaos injector stay on shard 0. The underlay
	// links become cross-shard exchanges whose minimum latency is
	// PropDelay, which therefore must be positive and becomes the engine's
	// conservative lookahead. 0 (the default) keeps the classic single
	// Engine with no exchange machinery; 1 runs the sharded machinery on
	// one shard — the reference oracle that N-shard runs are byte-compared
	// against. With Shards > 1, ModeHost and ModeSRIOV nodes are always
	// supported; MasQ modes additionally require CtrlShards > 0 (the
	// sharded controller places each shard on an engine shard and backends
	// reach it through per-host exchange proxies — see controller.Remote).
	// FreeFlow is not shard-safe, and chaos plans are rejected (fault
	// callbacks mutate devices across shards).
	Shards int

	// CtrlShards splits the controller's mapping table across this many
	// shards by consistent hash of (VNI, vGID) — each with its own epoch,
	// lease table, push queues, and (with Ctrl.Replicate) a standby
	// replica that auto-promotes on failover. 0 (the default) keeps the
	// classic single Controller in Testbed.Ctrl; any value > 0 builds a
	// controller.Sharded in Testbed.CtrlSharded instead. CtrlSvc always
	// exposes whichever was built. On an engine-sharded testbed controller
	// shard c lives on engine shard c % Shards.
	CtrlShards int

	// Trace enables the cross-layer span recorder: Testbed.Trace is
	// created and threaded through every device, backend, ring and the
	// controller, and each node's verbs device is wrapped so control verbs
	// open invocations. Tracing never changes virtual-time behaviour.
	Trace bool
}

// DefaultConfig mirrors the paper's Table 3 testbed: two directly
// connected servers, 96 GB RAM, 40 Gbps CX-3-calibrated RNICs.
func DefaultConfig() Config {
	return Config{
		Hosts:     2,
		HostMem:   96 << 30,
		VMMem:     4 << 30,
		RNIC:      rnic.DefaultParams(),
		Hyper:     hyper.DefaultParams(),
		Overlay:   overlay.DefaultParams(),
		Masq:      masq.DefaultParams(),
		FreeFlow:  freeflow.DefaultParams(),
		Ctrl:      controller.DefaultParams(),
		PropDelay: simtime.Us(0.1),
		SwitchFwd: simtime.Us(0.3),
	}
}

// Testbed is an assembled cluster.
type Testbed struct {
	// Eng is the control-plane engine: shard 0 of Sharded when the testbed
	// is sharded, or the single global engine otherwise. The controller,
	// fabric, ToR switch, and chaos injector live on it.
	Eng *simtime.Engine
	// Sharded is the sharded engine driving all shards, non-nil iff
	// Cfg.Shards > 0. Drive sharded testbeds with tb.Run/tb.RunUntil (or
	// Sharded.Run), never Eng.Run — shard 0 alone would starve the rest.
	Sharded *simtime.ShardedEngine
	Cfg   Config
	Hosts []*hyper.Host
	Fab   *overlay.Fabric
	// Ctrl is the classic single controller, non-nil iff CtrlShards == 0.
	Ctrl *controller.Controller
	// CtrlSharded is the sharded controller, non-nil iff CtrlShards > 0.
	CtrlSharded *controller.Sharded
	// CtrlSvc is the controller service every backend talks to: Ctrl or
	// CtrlSharded, whichever the config built.
	CtrlSvc  controller.Service
	Backends []*masq.Backend // per host, nil until first MasQ node
	// Links are the underlay links: one for a direct pair, or one per host
	// toward the ToR switch (Links[i] is host i's uplink). Attach taps here
	// to capture pcaps, or target them with chaos faults.
	Links []*simnet.Link
	// Switch is the ToR switch for testbeds with more than two hosts (nil
	// for a directly connected pair).
	Switch *simnet.Switch
	// Chaos is the testbed's fault injector. Link/switch transitions it
	// applies are mirrored into the adjacent RNICs' port state (raising
	// port async events), and NodeCrash events call CrashNode.
	Chaos *chaos.Injector
	// Trace is the cross-layer span recorder, non-nil iff Cfg.Trace.
	Trace *trace.Recorder

	masqMode   masq.Mode
	routers    []*freeflow.Router // per host, lazy
	neighbors  map[packet.IP]packet.MAC
	nodes      []*Node // in creation order; chaos NodeCrash indexes this
	vfSeq      byte
	nodeSeq    int
	leaseUntil simtime.Time // nonzero once StartLeases ran; late backends join
}

// New assembles a testbed. Two hosts are directly connected; more hang off
// a ToR switch.
func New(cfg Config) *Testbed {
	if cfg.Hosts == 0 {
		cfg = DefaultConfig()
	}
	var eng *simtime.Engine
	var se *simtime.ShardedEngine
	if cfg.Shards > 0 {
		if cfg.PropDelay <= 0 {
			panic("cluster: sharded testbeds need PropDelay > 0 (it is the conservative lookahead)")
		}
		if cfg.Shards > 1 && len(cfg.Chaos.Events) > 0 {
			panic("cluster: chaos plans are not supported with Shards > 1")
		}
		se = simtime.NewSharded(cfg.Shards)
		eng = se.Shard(0)
	} else {
		eng = simtime.NewEngine()
	}
	tb := &Testbed{
		Eng:       eng,
		Sharded:   se,
		Cfg:       cfg,
		neighbors: make(map[packet.IP]packet.MAC),
		masqMode:  masq.ModeVF,
	}
	if cfg.CtrlShards > 0 {
		// Controller shard c lives on engine shard c % Shards (shard 0's
		// engine when the testbed is not engine-sharded), so MasQ nodes on
		// any engine shard reach their shards without serializing through
		// engine shard 0.
		engines := []*simtime.Engine{eng}
		if se != nil {
			engines = engines[:0]
			for i := 0; i < se.NumShards(); i++ {
				engines = append(engines, se.Shard(i))
			}
		}
		tb.CtrlSharded = controller.NewSharded(engines, cfg.Ctrl, cfg.CtrlShards)
		tb.CtrlSvc = tb.CtrlSharded
		tb.CtrlSharded.SetFaultPlan(cfg.CtrlFault)
	} else {
		tb.Ctrl = controller.New(eng, cfg.Ctrl)
		tb.CtrlSvc = tb.Ctrl
		tb.Ctrl.SetFaultPlan(cfg.CtrlFault)
	}
	tb.Fab = overlay.NewFabric(eng, cfg.Overlay)
	if cfg.Trace {
		tb.Trace = trace.NewSharded(max(cfg.Shards, 1))
		if tb.CtrlSharded != nil {
			tb.CtrlSharded.SetRecorder(tb.Trace)
		} else {
			tb.Ctrl.SetRecorder(tb.Trace)
		}
	}

	resolveHost := func(ip packet.IP) (packet.MAC, bool) {
		mac, ok := tb.neighbors[ip]
		return mac, ok
	}
	for i := 0; i < cfg.Hosts; i++ {
		ip := packet.NewIP(172, 16, byte(i>>8), byte(i+1))
		mac := packet.MAC{0x02, 0x10, 0, 0, byte(i >> 8), byte(i)}
		// Disjoint MR-key ranges per host: a live-migrated MR keeps its
		// lkey/rkey at the destination (peers hold rkeys in application
		// state), which must never collide with a key minted there.
		rn := cfg.RNIC
		rn.KeyBase = uint32(i) << 20
		h := hyper.NewHost(tb.HostEngine(i), hyper.HostConfig{
			Name: fmt.Sprintf("host%d", i), IP: ip, MAC: mac,
			MemBytes: cfg.HostMem, RNIC: rn, Hyper: cfg.Hyper,
			Fabric: tb.Fab, ResolveHost: resolveHost,
		})
		tb.neighbors[ip] = mac
		h.Dev.SetRecorder(tb.Trace)
		tb.Hosts = append(tb.Hosts, h)
	}
	tb.Backends = make([]*masq.Backend, cfg.Hosts)
	tb.routers = make([]*freeflow.Router, cfg.Hosts)

	switch {
	case cfg.Hosts == 2 && se == nil:
		tb.Links = append(tb.Links,
			simnet.Connect(eng, tb.Hosts[0].Port, tb.Hosts[1].Port, cfg.RNIC.LineRate, cfg.PropDelay))
	case cfg.Hosts == 2:
		tb.Links = append(tb.Links,
			simnet.ConnectVia(se, tb.Hosts[0].Port, tb.Hosts[1].Port, cfg.RNIC.LineRate, cfg.PropDelay))
	default:
		tb.Switch = simnet.NewSwitch(eng, "tor", cfg.SwitchFwd)
		for _, h := range tb.Hosts {
			if se == nil {
				tb.Links = append(tb.Links, tb.Switch.AttachPort(h.Port, cfg.RNIC.LineRate, cfg.PropDelay))
			} else {
				tb.Links = append(tb.Links, tb.Switch.AttachPortVia(se, h.Port, cfg.RNIC.LineRate, cfg.PropDelay))
			}
		}
	}

	tb.Chaos = chaos.NewInjector(eng)
	tb.Chaos.OnCrash = func(node int) {
		if node >= 0 && node < len(tb.nodes) {
			_ = tb.CrashNode(tb.nodes[node])
		}
	}
	tb.Chaos.OnMigrate = func(node, dst int) {
		if node < 0 || node >= len(tb.nodes) || dst < 0 || dst >= len(tb.Hosts) {
			return
		}
		n := tb.nodes[node]
		tb.Eng.Spawn("chaos-migrate:"+n.Name, func(p *simtime.Proc) {
			_, _ = tb.LiveMigrateNode(p, n, dst, MigrateOpts{})
		})
	}
	if tb.CtrlSharded != nil {
		// A whole-controller outage on a sharded control plane crashes
		// every shard's primary; with replication on, each standby
		// auto-promotes after the detect window, so the Until edge's
		// RestartAll only restarts shards still down.
		tb.Chaos.OnCtrlCrash = func() { tb.CtrlSharded.CrashAll() }
		tb.Chaos.OnCtrlRestart = func() { tb.CtrlSharded.RestartAll() }
		tb.Chaos.OnShardCrash = tb.CtrlSharded.CrashShard
		tb.Chaos.OnShardRestart = tb.CtrlSharded.RestartShard
		tb.Chaos.OnShardPartition = func(shard int, heal simtime.Time) {
			tb.CtrlSharded.PartitionShard(shard, heal.Sub(tb.Eng.Now()))
		}
		tb.Chaos.OnReplLag = tb.CtrlSharded.SetLagWindow
	} else {
		tb.Chaos.OnCtrlCrash = func() { tb.Ctrl.Crash() }
		tb.Chaos.OnCtrlRestart = func() { tb.Ctrl.Restart() }
	}
	tb.Chaos.OnLinkState = func(l *simnet.Link, down bool) {
		// A cable cut is visible to both adjacent RNICs as a port event.
		for _, h := range tb.Hosts {
			if l.A == h.Port || l.B == h.Port {
				h.Dev.SetPortState(!down)
			}
		}
	}
	tb.Chaos.Arm(cfg.Chaos)
	return tb
}

// HostEngine returns the engine host i's components run on: shard
// i % Shards of the sharded engine, or the single global engine. Spawn
// workload procs that touch host i's devices on this engine.
func (tb *Testbed) HostEngine(i int) *simtime.Engine {
	if tb.Sharded == nil {
		return tb.Eng
	}
	return tb.Sharded.Shard(i % tb.Sharded.NumShards())
}

// Run drives the testbed to quiescence — on the sharded engine when
// configured, the classic engine otherwise — and returns the final
// virtual time.
func (tb *Testbed) Run() simtime.Time {
	if tb.Sharded != nil {
		return tb.Sharded.Run()
	}
	return tb.Eng.Run()
}

// RunUntil drives the testbed up to the deadline (see Engine.RunUntil).
func (tb *Testbed) RunUntil(deadline simtime.Time) simtime.Time {
	if tb.Sharded != nil {
		return tb.Sharded.RunUntil(deadline)
	}
	return tb.Eng.RunUntil(deadline)
}

// PendingProcs lists blocked procs across every shard of the testbed's
// engine, for post-run diagnostics.
func (tb *Testbed) PendingProcs() []string {
	if tb.Sharded != nil {
		return tb.Sharded.PendingProcs()
	}
	return tb.Eng.PendingProcs()
}

// HostLink returns the underlay link adjacent to host i: the single
// direct link for a two-host pair, or the host's ToR uplink otherwise.
func (tb *Testbed) HostLink(i int) *simnet.Link {
	if tb.Switch == nil {
		return tb.Links[0]
	}
	return tb.Links[i]
}

// SetMasqMode selects VF (default) or PF placement for MasQ nodes created
// afterwards. It must be called before the first MasQ node on a host.
func (tb *Testbed) SetMasqMode(m masq.Mode) { tb.masqMode = m }

// AddTenant creates a VPC.
func (tb *Testbed) AddTenant(vni uint32, name string) *overlay.Tenant {
	return tb.Fab.AddTenant(vni, name)
}

// AllowAll installs a lowest-priority allow-everything rule on the tenant
// (the common "open security group" starting point in the evaluation).
func (tb *Testbed) AllowAll(vni uint32) int {
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	return tb.Fab.Tenant(vni).Policy.AddRule(overlay.Rule{
		Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow,
	})
}

// ctrlFor returns the controller service host hostIdx's backend should
// talk to: the shared Ctrl/CtrlSharded front directly, or — on an
// engine-sharded testbed with a sharded controller — a per-host
// controller.Remote that routes every RPC and notification over
// exchanges, so host procs never touch another engine shard's state.
func (tb *Testbed) ctrlFor(hostIdx int) controller.Service {
	if tb.CtrlSharded == nil {
		return tb.Ctrl
	}
	if tb.Sharded == nil {
		return tb.CtrlSharded
	}
	n := tb.Sharded.NumShards()
	return controller.NewRemote(tb.Sharded, tb.CtrlSharded, hostIdx%n,
		func(ctrlShard int) int { return ctrlShard % n }, tb.Cfg.PropDelay)
}

// Backend returns (creating on demand) the MasQ backend of a host.
func (tb *Testbed) Backend(hostIdx int) *masq.Backend {
	if tb.Backends[hostIdx] == nil {
		tb.Backends[hostIdx] = masq.NewBackend(tb.Hosts[hostIdx], tb.ctrlFor(hostIdx), tb.Fab, tb.Cfg.Masq, tb.masqMode)
		tb.Backends[hostIdx].SetRecorder(tb.Trace)
		if tb.leaseUntil != 0 {
			tb.Backends[hostIdx].StartLeaseRenewal(tb.leaseUntil)
		}
	}
	return tb.Backends[hostIdx]
}

// StartLeases starts every backend's lease-renewal process, running until
// the given horizon. Backends created later (lazily, by the first MasQ node
// on a host) join automatically. Renewals keep controller registrations
// alive past their LeaseTTL and double as the failure detector that drives
// post-crash reconciliation.
func (tb *Testbed) StartLeases(until simtime.Time) {
	tb.leaseUntil = until
	for _, b := range tb.Backends {
		if b != nil {
			b.StartLeaseRenewal(until)
		}
	}
}

// CrashController schedules a controller crash at the given instant and,
// when restart is nonzero, a restart at that later instant. The crash wipes
// the controller's mapping table and pending notification queues and is
// recorded in the chaos trace; the restart bumps the epoch, fencing any
// stale state. Recovery is driven by the backends' lease renewals (see
// StartLeases), which re-register live endpoints and re-request push-down.
func (tb *Testbed) CrashController(at, restart simtime.Time) {
	tb.Chaos.Arm(chaos.Plan{Seed: 1, Events: []chaos.Event{chaos.CtrlOutage(at, restart)}})
}

// Router returns (creating on demand) the FreeFlow router of a host.
func (tb *Testbed) Router(hostIdx int) *freeflow.Router {
	if tb.routers[hostIdx] == nil {
		tb.routers[hostIdx] = freeflow.NewRouter(tb.Hosts[hostIdx], tb.Cfg.FreeFlow)
	}
	return tb.routers[hostIdx]
}

// resolveUnderlayGID maps a GID carrying an underlay IP (host or VF) to
// its addressing — the neighbor table of Host-RDMA and SR-IOV drivers.
func (tb *Testbed) resolveUnderlayGID(gid packet.GID) (packet.IP, packet.MAC, bool) {
	ip, ok := gid.IP()
	if !ok {
		return packet.IP{}, packet.MAC{}, false
	}
	mac, ok := tb.neighbors[ip]
	return ip, mac, ok
}

// Node is one workload endpoint: an application environment with a verbs
// provider, an out-of-band channel, memory, and (virtualization-scaled)
// compute.
type Node struct {
	Name string
	Mode Mode
	VIP  packet.IP
	Host *hyper.Host

	Provider verbs.Provider
	Mem      *mem.AddrSpace
	OOB      *oob
	VM       *hyper.VM  // nil for host/container nodes
	VF       *rnic.Func // the passthrough VF of an SR-IOV node

	tb      *Testbed
	vni     uint32
	compute func(p *simtime.Proc, d simtime.Duration)
	crashed bool

	dev verbs.Device // cached open device
}

// Crashed reports whether the node was killed by CrashNode.
func (n *Node) Crashed() bool { return n.crashed }

// NewNode creates a workload endpoint on a host under the given mode,
// attached to tenant vni at virtual IP vip.
func (tb *Testbed) NewNode(mode Mode, hostIdx int, vni uint32, vip packet.IP) (*Node, error) {
	if tb.Sharded != nil && tb.Sharded.NumShards() > 1 {
		switch mode {
		case ModeHost, ModeSRIOV:
			// Shard-safe: after setup these nodes only interact across
			// hosts through simnet frames, which ride the exchanges.
		case ModeMasQ, ModeMasQPF, ModeMasQShared:
			// Shard-safe iff the controller is sharded: backends then talk
			// to it through per-host exchange proxies (controller.Remote)
			// instead of reaching into another shard's state.
			if tb.CtrlSharded == nil {
				return nil, fmt.Errorf("cluster: %v nodes with Shards > 1 need CtrlShards > 0 "+
					"(the sharded controller is what makes cross-shard control RPCs shard-safe)", mode)
			}
		default:
			return nil, fmt.Errorf("cluster: %v nodes call the shared controller from host procs, "+
				"which is not shard-safe; use ModeHost or ModeSRIOV with Shards > 1", mode)
		}
	}
	tb.nodeSeq++
	name := fmt.Sprintf("%s-%d", mode, tb.nodeSeq)
	h := tb.Hosts[hostIdx]
	n := &Node{Name: name, Mode: mode, VIP: vip, Host: h, tb: tb, vni: vni}

	switch mode {
	case ModeHost:
		// Bare metal: app in host userspace on the PF. The out-of-band
		// channel still runs over the tenant overlay for uniformity.
		vp, err := h.VSwitch.AttachVM(vni, vip)
		if err != nil {
			return nil, err
		}
		n.Mem = h.HVA
		n.Provider = hostrdma.New(hostrdma.Config{
			Dev: h.Dev, Fn: h.Dev.PF(), Mem: h.HVA, Resolve: tb.resolveUnderlayGID,
		})
		n.compute = func(p *simtime.Proc, d simtime.Duration) { p.Sleep(d) }
		n.OOB = newOOB(tb, h, vni, vp)
	case ModeSRIOV:
		vm, err := h.NewVM(name, tb.Cfg.VMMem, vni, vip)
		if err != nil {
			return nil, err
		}
		n.VM = vm
		n.Mem = vm.GVA
		tb.vfSeq++
		vfIP := packet.NewIP(172, 18, byte(hostIdx), tb.vfSeq)
		vfMAC := packet.MAC{0x02, 0x20, 0, 0, byte(hostIdx), tb.vfSeq}
		pr, vf, err := sriov.NewProvider(h, vm, vfIP, vfMAC, tb.resolveUnderlayGID)
		if err != nil {
			vm.Shutdown()
			return nil, err
		}
		tb.neighbors[vfIP] = vfMAC
		n.Provider = pr
		n.VF = vf
		n.compute = vm.Compute
		n.OOB = newOOB(tb, h, vni, vm.VNIC)
	case ModeMasQ, ModeMasQPF, ModeMasQShared:
		if mode == ModeMasQPF {
			tb.SetMasqMode(masq.ModePF)
		}
		if mode == ModeMasQShared {
			tb.SetMasqMode(masq.ModeVFShared)
		}
		vm, err := h.NewVM(name, tb.Cfg.VMMem, vni, vip)
		if err != nil {
			return nil, err
		}
		fe, err := tb.Backend(hostIdx).NewFrontend(vm, vni)
		if err != nil {
			vm.Shutdown()
			return nil, err
		}
		n.VM = vm
		n.Mem = vm.GVA
		n.Provider = fe
		n.compute = vm.Compute
		n.OOB = newOOB(tb, h, vni, vm.VNIC)
	case ModeFreeFlow:
		c, err := h.NewContainer(name, vni, vip)
		if err != nil {
			return nil, err
		}
		n.Mem = c.GVA
		r := tb.Router(hostIdx)
		n.Provider = freeflow.NewProvider(r, c, func(gid packet.GID) (packet.IP, packet.MAC, bool) {
			// FreeFlow's controller: virtual GID → host underlay address.
			ip, ok := gid.IP()
			if !ok {
				return packet.IP{}, packet.MAC{}, false
			}
			ep := tb.Fab.Lookup(vni, ip)
			if ep == nil {
				return packet.IP{}, packet.MAC{}, false
			}
			return ep.HostIP, ep.HostMAC, true
		})
		n.compute = c.Compute
		n.OOB = newOOB(tb, h, vni, c.VNIC)
	default:
		return nil, fmt.Errorf("cluster: unknown mode %v", mode)
	}
	tb.nodes = append(tb.nodes, n)
	return n, nil
}

// CrashNode kills a MasQ node's VM abruptly — the unplanned counterpart of
// MigrateNode. The host-side reaction chain runs first (masq.Backend.Crash:
// destroy the session's QPs and flush their conntrack entries, deregister
// MRs, unregister the vBond's controller mapping), then the vNIC is detached
// from the vswitch and the VM's memory released. Surviving peers are NOT
// notified: they discover the death through transport retry exhaustion,
// which surfaces as a QP-fatal async event on their side (Sec. 3.3's
// security argument depends on stale state never outliving the endpoint).
func (tb *Testbed) CrashNode(n *Node) error {
	if n.Mode != ModeMasQ && n.Mode != ModeMasQPF && n.Mode != ModeMasQShared {
		return fmt.Errorf("cluster: crash is implemented for MasQ nodes (got %v)", n.Mode)
	}
	if n.crashed {
		return nil
	}
	n.crashed = true
	fe, _ := n.Provider.(*masq.Frontend)
	vm, vnic := n.VM, n.VM.VNIC
	host := n.Host
	b := tb.Backends[hostIndex(tb, host)]
	tb.Eng.Spawn("crash:"+n.Name, func(p *simtime.Proc) {
		if b != nil && fe != nil {
			b.Crash(p, fe)
		}
		host.VSwitch.DetachVM(vnic)
		vm.Shutdown()
	})
	return nil
}

func hostIndex(tb *Testbed, h *hyper.Host) int {
	for i, x := range tb.Hosts {
		if x == h {
			return i
		}
	}
	return -1
}

// Compute burns CPU time scaled by the node's virtualization overhead.
func (n *Node) Compute(p *simtime.Proc, d simtime.Duration) { n.compute(p, d) }

// Alloc allocates an application buffer and returns its virtual address.
func (n *Node) Alloc(size int) (uint64, error) { return n.Mem.Alloc(size) }

// Write stores data at an application virtual address.
func (n *Node) Write(va uint64, b []byte) error { return n.Mem.Write(va, b) }

// Read loads data from an application virtual address.
func (n *Node) Read(va uint64, b []byte) error { return n.Mem.Read(va, b) }

// MigrateNode live-migrates a MasQ node's VM to another host, following
// the application-assisted scheme the paper endorses in Sec. 5 (after
// AccelNet): the application must first tear down its RDMA resources —
// destroy QPs and deregister MRs, falling back to the TCP path — because
// pinned, DMA-visible memory cannot move. Migration then copies the
// guest's memory image, re-homes the vNIC on the destination vswitch, and
// plugs in a fresh MasQ frontend whose vBond re-registers the (VNI, vGID)
// mapping with the new host's physical identity; peers that reconnect
// resolve the new location through the controller (stale caches are
// refreshed by the controller's push notifications).
func (tb *Testbed) MigrateNode(n *Node, dstHost int) error {
	if n.Mode != ModeMasQ && n.Mode != ModeMasQPF && n.Mode != ModeMasQShared {
		return fmt.Errorf("cluster: live migration is implemented for MasQ nodes (got %v)", n.Mode)
	}
	dst := tb.Hosts[dstHost]
	if n.Host == dst {
		// Same-host "migration" is a no-op: nothing to copy, nothing to
		// re-register — the existing frontend and vBond stay authoritative.
		return nil
	}
	srcIdx := hostIndex(tb, n.Host)
	// The memory move runs first: a refused migration (pinned, DMA-visible
	// guest memory) must leave the source completely untouched — vBond
	// registered, counters unchanged, controller state intact.
	if err := n.VM.MigrateTo(dst); err != nil {
		return err
	}
	if old, ok := n.Provider.(*masq.Frontend); ok {
		old.VBond().Stop()
		// Source-host fast-path state staged for the departed VM —
		// warm-pool QPs, shared-connection carrier entries — dies with it,
		// and the stopped bond leaves the lease set so renewal follows the
		// successor bond created below.
		if srcB := tb.Backends[srcIdx]; srcB != nil {
			srcB.RetireFrontend(old)
		}
	}
	if err := tb.Fab.MoveEndpoint(n.VM.VNIC, dst.VSwitch); err != nil {
		return err
	}
	fe, err := tb.Backend(dstHost).NewFrontend(n.VM, n.vni)
	if err != nil {
		return err
	}
	n.Host = dst
	n.Provider = fe
	n.Mem = n.VM.GVA // the rebuilt guest address space
	n.compute = n.VM.Compute
	n.dev = nil // the guest re-opens its device after resuming
	return nil
}

// Device opens (once) and returns the node's verbs device context.
func (n *Node) Device(p *simtime.Proc) (verbs.Device, error) {
	if n.dev == nil {
		dev, err := n.Provider.Open(p)
		if err != nil {
			return nil, err
		}
		// With tracing on, control verbs issued through this device open
		// trace invocations attributed to this node (tenant + name).
		n.dev = verbs.Instrument(dev, n.tb.Trace, fmt.Sprintf("vni%d/%s", n.vni, n.Name))
	}
	return n.dev, nil
}
