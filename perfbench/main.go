// Command perfbench is the MasQ simulator's benchmark. One invocation runs
// one seeded workload for a fixed host-time budget and prints every metric
// by name and unit; the last line of standard output is a JSON object
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). See README.md for the workloads and what each metric means.
//
// Each repetition of a workload runs in a fresh child process of this
// binary, so goroutines and heap left behind by one testbed never skew the
// next; the parent only schedules repetitions, checks them against each
// other and aggregates medians.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// repKind selects what one child repetition records besides its timings.
const (
	kindPlain   = "plain"   // nothing: the timed repetition
	kindProfile = "profile" // a CPU profile, bucketed by package
	kindTraced  = "traced"  // trace.Recorder attribution + the benchmark's own spans
)

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "host seconds to spend on timed repetitions")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for spans and profiles")
	child := flag.String("child", "", "internal: run one repetition of this kind and print it as JSON")
	shards := flag.Int("shards", -1, "internal: engine shard override for the oracle repetition")
	flag.Parse()

	w, ok := workloads[*workload]
	switch {
	case !ok:
		fatalf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	case *seconds < 1:
		fatalf("-seconds must be at least 1")
	case *traceFlag != 0 && *traceFlag != 1:
		fatalf("-trace must be 0 or 1")
	}
	if *child != "" {
		os.Exit(runChild(w, *child, *seed, *shards, *out))
	}
	os.Exit(orchestrate(w, *seed, *seconds, *traceFlag == 1, *out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// Minimum repetitions per run, whatever -seconds says: medians of fewer
// are not worth reporting.
const (
	minTimedReps  = 3
	minTracedReps = 2 // plain repetitions beside the profiled and traced ones
	childTimeout  = 150 * time.Second
)

// orchestrate schedules the child repetitions of one run, checks them and
// prints the result. It returns the process exit code.
func orchestrate(w *workload, seed int64, seconds int, traced bool, out string) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)

	var plan []string
	minReps := minTimedReps
	if traced {
		plan = []string{kindProfile, kindTraced}
		minReps = minTracedReps
	}
	var oracle *repResult
	if w.oracleShards > 0 {
		r, err := spawn(ctx, w, kindPlain, seed, w.oracleShards, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: oracle repetition: %v\n", err)
			return 1
		}
		oracle = r
	}
	var reps []*repResult
	plain := 0
	for i := 0; ; i++ {
		kind := kindPlain
		if i < len(plan) {
			kind = plan[i]
		} else if plain >= minReps && time.Now().After(deadline) {
			break
		}
		r, err := spawn(ctx, w, kind, seed, -1, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s repetition %d: %v\n", kind, i, err)
			return 1
		}
		reps = append(reps, r)
		if kind == kindPlain {
			plain++
		}
	}

	res := aggregate(w, reps, oracle)
	res.stampWith(seed, w)
	suffix := "e2e"
	if traced {
		suffix = "layers"
	}
	res.save(out, fmt.Sprintf("%s-seed%d-%s.json", w.name, seed, suffix))
	res.print(os.Stdout, traced)
	return 0
}

// spawn runs one repetition in a child process and decodes its result.
func spawn(ctx context.Context, w *workload, kind string, seed int64, shards int, out string) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-child", kind, "-shards", strconv.Itoa(shards), "-out", out)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.gomaxprocs()))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", kind, err)
	}
	var r repResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r); err != nil {
		return nil, fmt.Errorf("child %s output: %w", kind, err)
	}
	return &r, nil
}

// gomaxprocs is the parallelism a workload's repetitions run with: one
// processor per engine shard (one for the classic engine), capped by the
// host's CPUs. A classic engine runs one goroutine at a time, and a second
// processor only adds cross-CPU handoffs that the host's scheduler times.
func (w *workload) gomaxprocs() int { return max(1, min(w.shards, maxShards, runtime.NumCPU())) }

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
