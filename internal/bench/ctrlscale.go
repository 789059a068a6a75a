package bench

import (
	"fmt"
	"sort"
	"time"

	"masq/internal/controller"
	"masq/internal/packet"
	"masq/internal/simtime"
)

func init() {
	register("abl-ctrl-scale", "Ablation: sharded controller at cloud scale — setup latency and queue depth vs shard count", ablCtrlScale)
}

// CtrlScalePoint is one row of the controller-scale curve: the same seeded
// 1000-host workload against a different shard count (and, in the failover
// arm, with one shard's primary crashed mid-storm).
type CtrlScalePoint struct {
	Shards   int  `json:"shards"`
	Hosts    int  `json:"hosts"`
	VMs      int  `json:"vms_per_host"`
	Failover bool `json:"failover"`
	// Resolve latency percentiles (µs) for setup-path lookups racing the
	// renewal wave — the queueing signal.
	ResolveP50Us float64 `json:"resolve_p50_us"`
	ResolveP99Us float64 `json:"resolve_p99_us"`
	// RenewWaveMs is how long the full renewal wave took to complete
	// (virtual ms), including retries through the failover window.
	RenewWaveMs float64 `json:"renew_wave_ms"`
	// MaxQueueHWM is the deepest serialization queue any shard saw.
	MaxQueueHWM int `json:"max_queue_hwm"`
	// Retries counts renewal batches that had to be re-sent (dark or
	// fenced shard); FencedWrites is the controller-side fence count.
	Retries      int     `json:"retries"`
	FencedWrites uint64  `json:"fenced_writes"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// runCtrlScale drives the Sharded controller directly with a synthetic
// cluster: hosts edge backends, each owning vms registrations. Three
// overlapping storms model the worst minute of a big deployment:
//
//   - a renewal wave: every host re-asserts all of its leases in per-shard
//     batch RPCs, all hosts within a ~100 µs jitter window (the thundering
//     herd a synchronized lease period produces);
//   - a rename flood: every host resolves `resolves` pseudo-random remote
//     keys — the connection-setup path — while the wave is still queued,
//     so the latency percentiles measure queueing, not just the RTT;
//   - optionally, a mid-storm failover: shard 0's primary crashes 200 µs
//     into the wave and its standby promotes after FailoverDetect; waves
//     retry through the dark window and across the fencing generation.
//
// Registration itself is the direct vBond write path (free), so the storm
// cost measured is exactly the RPC/serialization plane the shards split.
func runCtrlScale(hosts, vms, resolves, shards int, failover bool) CtrlScalePoint {
	eng := simtime.NewEngine()
	p := controller.DefaultParams()
	p.LeaseTTL = simtime.Ms(10000) // nothing expires mid-bench
	p.Replicate = true
	p.ReplDelay = simtime.Us(20)
	p.FailoverDetect = simtime.Ms(2)
	s := controller.NewSharded([]*simtime.Engine{eng}, p, shards)

	const vni = 42
	key := func(h, v int) controller.Key {
		return controller.Key{VNI: vni,
			VGID: packet.GIDFromIP(packet.NewIP(10, byte(h>>8), byte(h), byte(v)))}
	}
	for h := 0; h < hosts; h++ {
		m := controller.Mapping{
			PGID: packet.GIDFromIP(packet.NewIP(172, 16, byte(h>>8), byte(h))),
			PIP:  packet.NewIP(172, 16, byte(h>>8), byte(h)),
		}
		for v := 0; v < vms; v++ {
			s.Register(key(h, v), m)
		}
	}

	waveStart := simtime.Time(simtime.Ms(1))
	var wavesDone int
	var waveEnd simtime.Time
	var retries int
	for h := 0; h < hosts; h++ {
		h := h
		m := controller.Mapping{
			PGID: packet.GIDFromIP(packet.NewIP(172, 16, byte(h>>8), byte(h))),
			PIP:  packet.NewIP(172, 16, byte(h>>8), byte(h)),
		}
		eng.Spawn(fmt.Sprintf("wave%d", h), func(pr *simtime.Proc) {
			pr.Sleep(waveStart.Sub(pr.Now()) + simtime.Us(float64(h%97)))
			// Group this host's renewals by owning shard — the edge's
			// per-shard fan-out.
			perShard := make([][]controller.RenewReq, shards)
			for v := 0; v < vms; v++ {
				k := key(h, v)
				sh := s.Owner(k)
				perShard[sh] = append(perShard[sh], controller.RenewReq{K: k, M: m})
			}
			for sh, renew := range perShard {
				if len(renew) == 0 {
					continue
				}
				for attempt := 0; ; attempt++ {
					_, _, err := s.BatchLookupShard(pr, sh, nil, renew)
					if err == nil {
						break
					}
					retries++
					if attempt > 40 {
						panic(fmt.Sprintf("shard %d never recovered: %v", sh, err))
					}
					pr.Sleep(simtime.Us(500))
				}
			}
			wavesDone++
			if wavesDone == hosts {
				waveEnd = pr.Now()
			}
		})
	}

	// Rename flood: setup-path resolves racing the wave. Key choice is a
	// seeded LCG so every shard count sees the identical flood.
	var lats []simtime.Duration
	for h := 0; h < hosts; h++ {
		h := h
		eng.Spawn(fmt.Sprintf("flood%d", h), func(pr *simtime.Proc) {
			pr.Sleep(waveStart.Sub(pr.Now()) + simtime.Us(float64(50+(h*13)%97)))
			rng := uint64(h)*2862933555777941757 + 3037000493
			for i := 0; i < resolves; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				th := int(rng>>33) % hosts
				tv := int(rng>>17) % vms
				k := key(th, tv)
				start := pr.Now()
				for attempt := 0; ; attempt++ {
					if _, _, _, err := s.Resolve(pr, k); err == nil {
						break
					}
					if attempt > 40 {
						panic("resolve never recovered")
					}
					pr.Sleep(simtime.Us(500))
				}
				lats = append(lats, pr.Now().Sub(start))
			}
		})
	}

	if failover {
		eng.At(waveStart.Add(simtime.Us(200)), func() { s.CrashShard(0) })
	}

	wall := time.Now()
	eng.Run()
	pt := CtrlScalePoint{
		Shards: shards, Hosts: hosts, VMs: vms, Failover: failover,
		Retries:     retries,
		Events:      eng.Events(),
		WallSeconds: time.Since(wall).Seconds(),
		RenewWaveMs: waveEnd.Sub(waveStart).Seconds() * 1e3,
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		pt.ResolveP50Us = lats[n/2].Micros()
		pt.ResolveP99Us = lats[n*99/100].Micros()
	}
	for i := 0; i < shards; i++ {
		st := s.ShardStats(i)
		if st.QueueHWM > pt.MaxQueueHWM {
			pt.MaxQueueHWM = st.QueueHWM
		}
		pt.FencedWrites += st.FencedWrites
	}
	return pt
}

// CtrlScaleCurve runs the synthetic storm at each shard count, without and
// (when failover is true for that sweep) with the mid-storm crash.
func CtrlScaleCurve(hosts, vms, resolves int, shardCounts []int, failover bool) []CtrlScalePoint {
	var out []CtrlScalePoint
	for _, n := range shardCounts {
		out = append(out, runCtrlScale(hosts, vms, resolves, n, failover))
	}
	return out
}

// ablCtrlScale is the paper-style table: ~1000 hosts × ~100 VMs, renewal
// wave + rename flood, swept over shard counts, then the same sweep with a
// mid-storm failover of shard 0.
func ablCtrlScale() *Table {
	t := &Table{
		ID:    "abl-ctrl-scale",
		Title: "Sharded controller at 1000 hosts × 100 VMs: renewal wave + rename flood",
		Columns: []string{"shards", "failover", "resolve p50 (µs)", "resolve p99 (µs)",
			"wave (ms)", "queue HWM", "retries", "fenced", "events", "wall (s)"},
	}
	const hosts, vms, resolves = 1000, 100, 20
	for _, failover := range []bool{false, true} {
		for _, pt := range CtrlScaleCurve(hosts, vms, resolves, []int{1, 2, 4, 8}, failover) {
			t.AddRow(pt.Shards, pt.Failover,
				fmt.Sprintf("%.1f", pt.ResolveP50Us), fmt.Sprintf("%.1f", pt.ResolveP99Us),
				fmt.Sprintf("%.2f", pt.RenewWaveMs), pt.MaxQueueHWM, pt.Retries,
				pt.FencedWrites, pt.Events, fmt.Sprintf("%.2f", pt.WallSeconds))
		}
	}
	t.Note("p50/p99 over %d setup-path resolves racing the renewal wave; failover rows crash shard 0's primary 200 µs into the wave (standby promotes after 2 ms).",
		1000*resolves)
	return t
}
