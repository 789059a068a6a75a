package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"masq/internal/apps/perftest"
	"masq/internal/cluster"
	"masq/internal/simtime"
)

// SimCoreMetric is one engine-primitive measurement.
type SimCoreMetric struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	EventsPerOp float64 `json:"events_per_op"`
}

// SimCoreReport is the perf snapshot emitted as BENCH_simcore.json so the
// engine's wall-clock trajectory is tracked across PRs.
type SimCoreReport struct {
	// HostCPUs/GoMaxProcs qualify the shard-scaling numbers. The sharded
	// engine runs its windows sequentially, so its gain comes from smaller
	// per-shard heaps, not concurrency.
	HostCPUs   int `json:"host_cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
	// Primitives are steady-state micro-measurements of the DES core.
	Primitives []SimCoreMetric `json:"primitives"`
	// EndToEnd runs one NIC-cache ablation cell (64 QPs, 512 B writes over
	// SR-IOV) and reports the whole-simulator event rate.
	EndToEnd struct {
		Workload     string  `json:"workload"`
		Events       uint64  `json:"events"`
		WallSeconds  float64 `json:"wall_seconds"`
		EventsPerSec float64 `json:"events_per_sec"`
	} `json:"end_to_end"`
	// ShardScaling is the sharded-engine curve: the 64-host ring workload
	// at increasing shard counts. Digests must all match (same history);
	// events/sec shows how the conservative windows scale on this host.
	ShardScaling []ShardScalePoint `json:"shard_scaling"`
	// RuleScale is the policy-engine curve: valid_conn throughput and
	// enforcement latency at 1k → 100k rules, indexed vs linear (the
	// abl-rule-scale cells, minus the deliberately unbounded linear storm).
	RuleScale []RuleScalePoint `json:"rule_scale"`
	// Migration is the live-migration blackout surface: a subset of the
	// abl-migrate sweep (blackout vs guest dirty rate and live-connection
	// count) so blackout regressions show up across PRs.
	Migration []MigrationPoint `json:"migration"`
	// CtrlScale is the sharded-controller curve: the 1000-host × 100-VM
	// renewal-wave + rename-flood storm at increasing shard counts (the
	// abl-ctrl-scale cells), plus one mid-storm failover row. Setup-path
	// p99 and wave completion must improve with shard count.
	CtrlScale []CtrlScalePoint `json:"ctrl_scale"`
}

// measure runs setup once, then op n times, and reports wall time, heap
// allocations, and engine events per op.
func measure(name string, n int, setup func() (*simtime.Engine, func())) SimCoreMetric {
	eng, op := setup()
	op() // warm the pools so the steady state is what's measured
	ev0 := eng.Events()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return SimCoreMetric{
		Name:        name,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		EventsPerOp: float64(eng.Events()-ev0) / float64(n),
	}
}

// SimCoreBench measures the DES core primitives and one end-to-end
// experiment cell.
func SimCoreBench() *SimCoreReport {
	const n = 200000
	rep := &SimCoreReport{
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	rep.Primitives = append(rep.Primitives, measure("sleep_wake", n, func() (*simtime.Engine, func()) {
		eng := simtime.NewEngine()
		ping := simtime.NewQueue[struct{}](eng)
		pong := simtime.NewQueue[struct{}](eng)
		eng.Spawn("sleeper", func(p *simtime.Proc) {
			for {
				ping.Get(p)
				p.Sleep(1)
				pong.Put(struct{}{})
			}
		})
		// Each op resumes the proc, lets it sleep/wake once, and drains it.
		return eng, func() {
			ping.Put(struct{}{})
			eng.RunUntil(eng.Now().Add(simtime.Us(1)))
			pong.TryGet()
		}
	}))

	rep.Primitives = append(rep.Primitives, measure("timer_callback", n, func() (*simtime.Engine, func()) {
		eng := simtime.NewEngine()
		var t *simtime.Timer
		t = eng.NewTimer(func() {})
		return eng, func() {
			t.ScheduleAfter(1)
			eng.RunUntil(eng.Now().Add(simtime.Us(1)))
		}
	}))

	rep.Primitives = append(rep.Primitives, measure("queue_callback", n, func() (*simtime.Engine, func()) {
		eng := simtime.NewEngine()
		q := simtime.NewQueue[int](eng)
		var onItem func(int)
		onItem = func(int) { q.OnNext(onItem) }
		q.OnNext(onItem)
		return eng, func() {
			q.Put(1)
			eng.RunUntil(eng.Now().Add(simtime.Us(1)))
		}
	}))

	rep.EndToEnd.Workload = "abl-nic-cache cell: 64 QPs, 512 B WriteBW, 64-entry ctx cache"
	cfg := cluster.DefaultConfig()
	cfg.RNIC.CtxCacheSize = 64
	cfg.RNIC.CtxMissPenalty = simtime.Us(0.8)
	cp, err := cluster.NewConnectedPair(cfg, cluster.ModeSRIOV)
	if err != nil {
		panic(err)
	}
	type flow struct{ c, s *cluster.Endpoint }
	flows := []flow{{cp.Client, cp.Server}}
	for i := 1; i < 64; i++ {
		c, s, err := cp.ConnectExtraQP(cluster.DefaultEndpointOpts(), uint16(7100+i))
		if err != nil {
			panic(err)
		}
		flows = append(flows, flow{c, s})
	}
	for _, f := range flows {
		perftest.StartWriteBW(cp.TB.Eng, f.c, f.s, 512, 256, 8)
	}
	start := time.Now()
	cp.TB.Eng.Run()
	wall := time.Since(start).Seconds()
	rep.EndToEnd.Events = cp.TB.Eng.Events()
	rep.EndToEnd.WallSeconds = wall
	rep.EndToEnd.EventsPerSec = float64(cp.TB.Eng.Events()) / wall

	rep.ShardScaling = ShardScaleCurve(64, []int{1, 2, 4, 8}, simtime.Time(simtime.Ms(20)))

	for _, rules := range []int{1000, 10000, 100000} {
		for _, linear := range []bool{false, true} {
			rep.RuleScale = append(rep.RuleScale, runRuleScale(rules, linear, !(linear && rules >= 100000)))
		}
	}

	for _, dirty := range []float64{0, 0.5, 0.9} {
		for _, conns := range []int{1, 16} {
			rep.Migration = append(rep.Migration, runLiveMigrate(dirty, conns))
		}
	}

	rep.CtrlScale = CtrlScaleCurve(1000, 100, 20, []int{1, 2, 4, 8}, false)
	rep.CtrlScale = append(rep.CtrlScale, runCtrlScale(1000, 100, 20, 4, true))
	return rep
}

// WriteJSON renders the report as indented JSON.
func (r *SimCoreReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
