package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"masq/internal/simtime"
)

func init() {
	register("abl-shard-scale", "ablation: sharded-engine speedup vs shard count", ablShardScale)
}

// ShardScalePoint is one cell of the shard-scaling curve: the same seeded
// workload run on a different shard count.
type ShardScalePoint struct {
	Shards       int     `json:"shards"`
	Hosts        int     `json:"hosts"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is events/sec relative to the 1-shard run of the same
	// workload: the gain from smaller per-shard heaps.
	Speedup float64 `json:"speedup"`
	// Digest fingerprints the workload's final state. Every shard count
	// must produce the same digest — it is the determinism guard's hook.
	Digest string `json:"digest"`
}

// shardScaleRun drives a ring of hosts on a sharded engine: every host
// ticks a local event chain (the intra-shard load) and forwards tokens to
// its right neighbor over an exchange with 2 µs latency (the conservative
// lookahead). It returns total events dispatched, wall seconds, and a
// digest of the per-host counters and the final clock.
func shardScaleRun(hosts, shards, tokensPerHost int, until simtime.Time) (uint64, float64, uint64) {
	se := simtime.NewSharded(shards)
	lat := simtime.Us(2)
	tick := simtime.Duration(300)

	exch := make([]*simtime.Exchange, hosts) // exch[i]: host i → host i+1
	for i := range exch {
		exch[i] = se.NewExchange(i%shards, (i+1)%hosts%shards, lat)
	}

	type hostState struct{ ticks, tokens uint64 }
	states := make([]hostState, hosts)

	for i := 0; i < hosts; i++ {
		i := i
		eng := se.Shard(i % shards)
		var t func()
		t = func() {
			states[i].ticks++
			if eng.Now() < until {
				eng.After(tick, t)
			}
		}
		eng.After(tick, t)
	}

	handler := make([]func(), hosts) // handler[i]: a token arrives at host i
	for i := range handler {
		i := i
		eng := se.Shard(i % shards)
		handler[i] = func() {
			states[i].tokens++
			if eng.Now() < until {
				exch[i].Send(eng.Now().Add(lat), handler[(i+1)%hosts])
			}
		}
	}
	// Seed the ring before the run starts: host i-1 sends host i its first
	// tokens, timed at the earliest instant the lookahead bound allows.
	for i := 0; i < hosts; i++ {
		src := (i - 1 + hosts) % hosts
		for k := 0; k < tokensPerHost; k++ {
			exch[src].Send(simtime.Time(lat).Add(simtime.Duration(k)), handler[i])
		}
	}

	start := time.Now()
	se.Run()
	wall := time.Since(start).Seconds()

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	for _, st := range states {
		put(st.ticks)
		put(st.tokens)
	}
	put(uint64(se.Now()))
	return se.Events(), wall, h.Sum64()
}

// ShardScaleCurve runs the ring workload once per shard count and returns
// the scaling curve. The digest column proves all points simulated the
// same history.
func ShardScaleCurve(hosts int, shardCounts []int, until simtime.Time) []ShardScalePoint {
	points := make([]ShardScalePoint, 0, len(shardCounts))
	var base float64
	for _, n := range shardCounts {
		ev, wall, dig := shardScaleRun(hosts, n, 4, until)
		p := ShardScalePoint{
			Shards: n, Hosts: hosts, Events: ev, WallSeconds: wall,
			EventsPerSec: float64(ev) / wall,
			Digest:       fmt.Sprintf("%016x", dig),
		}
		if n == 1 {
			base = p.EventsPerSec
		}
		if base > 0 {
			p.Speedup = p.EventsPerSec / base
		}
		points = append(points, p)
	}
	return points
}

// ShardDeterminismRun executes the canonical ring workload on the given
// shard count and returns its fingerprint line. The line deliberately
// omits the shard count: runs at different counts must be byte-identical,
// which is exactly what the CI guard diffs (masqbench -shards 1 vs 4).
func ShardDeterminismRun(shards int) string {
	ev, _, dig := shardScaleRun(64, shards, 4, simtime.Time(simtime.Ms(10)))
	return fmt.Sprintf("ring hosts=64 until=10ms events=%d digest=%016x", ev, dig)
}

// ablShardScale is the table view of the scaling curve, sized so the
// 1-shard run takes a few seconds on one core.
func ablShardScale() *Table {
	t := &Table{
		ID:      "abl-shard-scale",
		Title:   "Sharded engine: events/sec vs shard count (ring of 64 hosts)",
		Columns: []string{"shards", "events", "wall_s", "events/sec", "speedup", "digest"},
		Notes: []string{
			fmt.Sprintf("host: %d CPUs, GOMAXPROCS=%d — windows run sequentially, so the speedup is smaller per-shard heaps",
				runtime.NumCPU(), runtime.GOMAXPROCS(0)),
			"equal digests = every shard count simulated the identical history",
		},
	}
	for _, p := range ShardScaleCurve(64, []int{1, 2, 4, 8}, simtime.Time(simtime.Ms(30))) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Shards), fmt.Sprint(p.Events), fmt.Sprintf("%.3f", p.WallSeconds),
			fmt.Sprintf("%.0f", p.EventsPerSec), fmt.Sprintf("%.2fx", p.Speedup), p.Digest,
		})
	}
	return t
}
