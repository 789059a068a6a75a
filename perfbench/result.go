package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

// repResult is what one child repetition reports to the parent.
type repResult struct {
	Kind   string `json:"kind"`
	Shards int    `json:"shards"`

	// SetupS and RunS are process CPU seconds (user+system, all threads);
	// the Wall fields are the same phases in elapsed host time.
	SetupS           float64 `json:"setup_s"`
	RunS             float64 `json:"run_s"`
	SetupWallS       float64 `json:"setup_wall_s"`
	RunWallS         float64 `json:"run_wall_s"`
	HeapLiveMB       float64 `json:"heap_live_mb"`
	CPUUtil          float64 `json:"cpu_util"`
	Events           uint64  `json:"events"`
	Allocs           uint64  `json:"allocs"`
	GoroutinesLeaked int     `json:"goroutines_leaked"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// VT holds the workload's modelled (virtual-time) metrics under their
	// workload-specific names. They are a pure function of the seed, so
	// every repetition of one run must report the same map.
	VT map[string]float64 `json:"vt"`
	// Layer holds per-layer values; names are from perLayer.
	Layer map[string]float64 `json:"layer"`
	// Checks lists every correctness check this repetition failed.
	Checks []string `json:"checks,omitempty"`
}

func (r *repResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// sanitize replaces values JSON cannot carry (a rate over an empty
// interval, say) with 0 and fails the repetition for each.
func (r *repResult) sanitize() {
	for _, m := range []map[string]float64{r.VT, r.Layer} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				m[k] = 0
				r.check(false, "metric %s is %v", k, v)
			}
		}
	}
}

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a -trace 0 run prints. Every workload reports
// every one of them: the last three are the workload's own modelled
// latency and throughput (see workload.aliases).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"heap_live_mb", "MB"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics a -trace 1 run prints, for every workload; a
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"simtime.events", "count"},
	{"simtime.ns_per_event", "ns"},
	{"simtime.allocs", "count"},
	{"simtime.goroutines_leaked", "count"},
	{"host.cpu_util", "frac"},
	{"host.setup_wall_s", "s"},
	{"host.run_wall_s", "s"},
	{"cluster.build_s", "s"},
	{"cluster.prep_s", "s"},
	{"controller.register_s", "s"},
	{"controller.queue_hwm", "count"},
	{"controller.queue_wait_p99_us", "us"},
	{"controller.rpcs", "count"},
	{"controller.retries", "count"},
	{"controller.renew_wave_ms", "ms"},
	{"rconnrename.cache_hit_ratio", "frac"},
	{"rconnrename.query_retries", "count"},
	{"rconntrack.verdict_hit_ratio", "frac"},
	{"rconntrack.validated", "count"},
	{"rconntrack.resets", "count"},
	{"rconntrack.revalidated", "count"},
	{"rconntrack.revoke_p50_us", "us"},
	{"overlay.rule_update_ns", "ns"},
	{"verb.create_cq_us", "us"},
	{"verb.create_qp_us", "us"},
	{"verb.modify_init_us", "us"},
	{"verb.modify_rtr_us", "us"},
	{"verb.modify_rts_us", "us"},
	{"verb.destroy_us", "us"},
	{"vt.verbs_us", "us"},
	{"vt.virtio_us", "us"},
	{"vt.masq-frontend_us", "us"},
	{"vt.masq-backend_us", "us"},
	{"vt.rconnrename_us", "us"},
	{"vt.rconntrack_us", "us"},
	{"vt.controller_us", "us"},
	{"vt.rnic_us", "us"},
	{"vt.overlay-oob_us", "us"},
	{"rnic.tx_packets", "count"},
	{"rnic.retransmits", "count"},
	{"rnic.dropped", "count"},
	{"rnic.events_per_packet", "count"},
	{"rnic.goodput_gbps", "Gb/s"},
	{"simnet.delivered", "count"},
	{"simnet.dropped", "count"},
	{"failed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

func init() {
	for _, b := range cpuBuckets {
		perLayer = append(perLayer, metricDef{"cpu." + b, "frac"})
	}
}

// runResult is one run's aggregate.
type runResult struct {
	attempted, failed int64
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	vt                map[string]float64
	stamp             map[string]any
}

// aggregate folds the repetitions of one run into medians, and fails the
// run when a correctness or determinism check does not hold.
func aggregate(w *workload, reps []*repResult, oracle *repResult) *runResult {
	res := &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	var plain []*repResult
	var profiled, tracedRep *repResult
	for _, r := range reps {
		res.attempted += r.Attempted
		res.failed += r.Failed
		for _, c := range r.Checks {
			res.failures = append(res.failures, r.Kind+": "+c)
		}
		switch r.Kind {
		case kindPlain:
			plain = append(plain, r)
		case kindProfile:
			profiled = r
		case kindTraced:
			tracedRep = r
		}
	}
	if oracle != nil {
		res.attempted += oracle.Attempted
		res.failed += oracle.Failed
		for _, c := range oracle.Checks {
			res.failures = append(res.failures, "oracle: "+c)
		}
	}

	// Determinism: every repetition of one seed simulates the same history,
	// traced or not, and an N-shard run matches its 1-shard oracle.
	ref := reps[0]
	res.vt = ref.VT
	for _, r := range reps[1:] {
		if !reflect.DeepEqual(r.VT, ref.VT) || r.Events != ref.Events && r.Kind != kindTraced {
			res.failures = append(res.failures, fmt.Sprintf(
				"determinism: %s repetition differs from the first (events %d vs %d, vt %v vs %v)",
				r.Kind, r.Events, ref.Events, r.VT, ref.VT))
		}
	}
	if oracle != nil && (!reflect.DeepEqual(oracle.VT, ref.VT) || oracle.Events != ref.Events) {
		res.failures = append(res.failures, fmt.Sprintf(
			"determinism: %d-shard run differs from its %d-shard oracle (events %d vs %d, vt %v vs %v)",
			ref.Shards, oracle.Shards, ref.Events, oracle.Events, ref.VT, oracle.VT))
	}

	med := func(rs []*repResult, f func(*repResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	// Host-time metrics come from the plain repetitions: profiling and
	// tracing both perturb them.
	res.e2e["setup_s"] = med(plain, func(r *repResult) float64 { return r.SetupS })
	res.e2e["run_s"] = med(plain, func(r *repResult) float64 { return r.RunS })
	res.e2e["heap_live_mb"] = med(plain, func(r *repResult) float64 { return r.HeapLiveMB })
	for i, m := range []string{"lat_p50_us", "lat_p99_us", "ops_per_s"} {
		res.e2e[m] = ref.VT[w.aliases[i]]
	}

	for _, m := range perLayer {
		res.layer[m.name] = med(plain, func(r *repResult) float64 { return r.Layer[m.name] })
	}
	res.layer["simtime.events"] = float64(ref.Events)
	res.layer["simtime.ns_per_event"] = res.e2e["run_s"] * 1e9 / float64(max(ref.Events, 1))
	res.layer["simtime.allocs"] = med(plain, func(r *repResult) float64 { return float64(r.Allocs) })
	res.layer["simtime.goroutines_leaked"] = med(plain, func(r *repResult) float64 { return float64(r.GoroutinesLeaked) })
	res.layer["host.cpu_util"] = med(plain, func(r *repResult) float64 { return r.CPUUtil })
	res.layer["host.setup_wall_s"] = med(plain, func(r *repResult) float64 { return r.SetupWallS })
	res.layer["host.run_wall_s"] = med(plain, func(r *repResult) float64 { return r.RunWallS })
	if tx := res.layer["rnic.tx_packets"]; tx > 0 {
		res.layer["rnic.events_per_packet"] = float64(ref.Events) / tx
	}
	if res.attempted > 0 {
		res.layer["failed_frac"] = float64(res.failed) / float64(res.attempted)
	}
	if profiled != nil {
		for _, b := range cpuBuckets {
			res.layer["cpu."+b] = profiled.Layer["cpu."+b]
		}
	}
	if tracedRep != nil {
		for k, v := range tracedRep.Layer {
			if strings.HasPrefix(k, "vt.") || strings.HasPrefix(k, "verb.") {
				res.layer[k] = v
			}
		}
		res.layer["trace.overhead_frac"] = tracedRep.RunS/res.e2e["run_s"] - 1
	}
	return res
}

// stampWith records what the numbers depend on besides the code: the
// host, the Go runtime, the engine shard count and the seed.
func (res *runResult) stampWith(seed int64, w *workload) {
	res.stamp = map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"host_cpus":     runtime.NumCPU(),
		"gomaxprocs":    w.gomaxprocs(),
		"go_version":    runtime.Version(),
		"engine_shards": w.shards,
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// print writes the human-readable report and the final JSON line.
func (res *runResult) print(wr io.Writer, traced bool) {
	fmt.Fprintf(wr, "# stamp %s\n", mustJSON(res.stamp))
	var names []string
	for k := range res.vt {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(wr, "  vt    %-32s %16.4f %s\n", k, res.vt[k], vtUnit(k))
	}
	for _, m := range endToEnd {
		fmt.Fprintf(wr, "  e2e   %-32s %16.6g %s\n", m.name, res.e2e[m.name], m.unit)
	}
	if traced {
		for _, m := range perLayer {
			fmt.Fprintf(wr, "  layer %-32s %16.6g %s\n", m.name, res.layer[m.name], m.unit)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(wr, "  FAILED CHECK: %s\n", f)
	}

	line := finalLine{Correct: len(res.failures) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricOut{}}
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	for _, m := range defs {
		line.Metrics[m.name] = metricOut{Value: vals[m.name], Unit: m.unit}
	}
	fmt.Fprintln(wr, mustJSON(line))
}

// save writes the whole result, stamp included, beside the spans.
func (res *runResult) save(dir, name string) {
	writeJSONFile(dir, name, map[string]any{
		"stamp": res.stamp, "correct": len(res.failures) == 0, "failures": res.failures,
		"attempted": res.attempted, "failed": res.failed,
		"vt": res.vt, "end_to_end": res.e2e, "per_layer": res.layer,
	})
}

// vtUnit derives a modelled metric's unit from its name suffix.
func vtUnit(name string) string {
	for _, u := range [][2]string{{"_us", "us"}, {"_ms", "ms"}, {"_gbps", "Gb/s"}, {"_cps", "1/s"}, {"_ps", "1/s"}} {
		if strings.HasSuffix(name, u[0]) {
			return u[1]
		}
	}
	return "count"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// writeJSONFile writes v to dir/name, reporting failures on stderr only:
// the files are diagnostics, not results.
func writeJSONFile(dir, name string, v any) {
	b, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", name, err)
	}
}
