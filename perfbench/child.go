package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// maxShards caps engine shards (and GOMAXPROCS) at what a small host has.
const maxShards = 2

const cpuProfileHz = 500

// config is what a workload's build step receives: the inputs' seed, the
// engine shard count, and the span log (non-nil only in the traced
// repetition).
type config struct {
	seed   int64
	shards int
	traced bool
	spans  *spanLog
}

// instance is one built testbed, stopped at the start of its measured
// phase.
type instance interface {
	// run simulates the measured phase to quiescence.
	run()
	// events returns the engine events dispatched so far.
	events() uint64
	// finish fills in the modelled metrics, the layer counters and the
	// correctness checks once run has returned.
	finish(res *repResult)
}

type workload struct {
	name string
	// shards is the engine shard count (0 = the classic single engine).
	shards int
	// oracleShards, when positive, adds one repetition on that many engine
	// shards that must simulate the identical history.
	oracleShards int
	// aliases name the VT metrics reported as lat_p50_us, lat_p99_us and
	// ops_per_s.
	aliases [3]string
	build   func(c *config, res *repResult) (instance, error)
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runChild runs one repetition — build, measured phase, checks — and
// prints it as one JSON line. It returns the process exit code.
func runChild(w *workload, kind string, seed int64, shards int, out string) int {
	c := &config{seed: seed, shards: w.shards, traced: kind == kindTraced}
	if shards >= 0 {
		c.shards = shards
	}
	if c.traced {
		c.spans = newSpanLog()
	}
	res := &repResult{Kind: kind, Shards: c.shards, VT: map[string]float64{}, Layer: map[string]float64{}}
	g0 := runtime.NumGoroutine()

	t0, cpuSetup0 := time.Now(), cpuSeconds()
	inst, err := w.build(c, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", w.name, err)
		return 1
	}
	res.SetupWallS = time.Since(t0).Seconds()
	res.SetupS = cpuSeconds() - cpuSetup0

	var prof *os.File
	if kind == kindProfile {
		if prof, err = os.Create(filepath.Join(out, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		// A higher rate than pprof's default 100 Hz, so a one-second run
		// still gives a few hundred samples. The runtime warns on stderr
		// that StartCPUProfile cannot change it; the warning is expected.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0, ev0, cpu0 := ms.Mallocs, inst.events(), cpuSeconds()
	t1 := time.Now()
	inst.run()
	res.RunWallS = time.Since(t1).Seconds()
	res.RunS = cpuSeconds() - cpu0
	res.CPUUtil = res.RunS / res.RunWallS
	runtime.ReadMemStats(&ms)
	res.Allocs = ms.Mallocs - allocs0
	res.Events = inst.events() - ev0
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		shares, err := cpuShares(prof.Name())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading CPU profile: %v\n", err)
			return 1
		}
		for b, v := range shares {
			res.Layer["cpu."+b] = v
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.HeapLiveMB = float64(ms.HeapAlloc) / 1e6
	res.GoroutinesLeaked = runtime.NumGoroutine() - g0

	inst.finish(res)
	runtime.KeepAlive(inst)
	res.sanitize()
	if c.spans != nil {
		c.spans.write(filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed)))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuTimer measures the process CPU seconds spent in one setup step.
func cpuTimer() func() float64 {
	t := cpuSeconds()
	return func() float64 { return cpuSeconds() - t }
}
