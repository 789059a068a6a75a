// Command masqbench regenerates the tables and figures of the MasQ paper's
// evaluation (and this repo's ablation studies) on the simulated testbed.
//
// Usage:
//
//	masqbench -list            # enumerate experiments
//	masqbench -run fig8a       # run one experiment
//	masqbench -run fig8a,fig10 # run several
//	masqbench -all             # run everything (slow)
//	masqbench -shards 4        # sharded-engine determinism fingerprint
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"masq/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "", "comma-separated experiment ids to run")
	all := flag.Bool("all", false, "run every experiment")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile to `file` at exit")
	simbench := flag.String("simbench", "", "measure the simulation core and write the report to `file` (e.g. BENCH_simcore.json)")
	shards := flag.Int("shards", 0, "run the sharded-engine determinism workload on `N` shards and print its fingerprint (byte-identical for every N)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			}
		}()
	}

	switch {
	case *shards > 0:
		// The fingerprint intentionally excludes the shard count and wall
		// time, so `masqbench -shards 1` and `masqbench -shards 4` emit
		// byte-identical output iff the sharded engine replays the
		// single-shard oracle exactly. CI diffs the two.
		fmt.Println(bench.ShardDeterminismRun(*shards))
	case *simbench != "":
		rep := bench.SimCoreBench()
		f, err := os.Create(*simbench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("simulation core: %.0f events/sec end-to-end (%d events in %.2fs); report → %s\n",
			rep.EndToEnd.EventsPerSec, rep.EndToEnd.Events, rep.EndToEnd.WallSeconds, *simbench)
		var idxPt, linPt *bench.RuleScalePoint
		for i := range rep.RuleScale {
			pt := &rep.RuleScale[i]
			if pt.Rules != 100000 {
				continue
			}
			if pt.Engine == "indexed" {
				idxPt = pt
			} else {
				linPt = pt
			}
		}
		if idxPt != nil && linPt != nil {
			fmt.Printf("rule engine at 100k rules: valid_conn %.1fµs indexed vs %.1fµs linear (%.0fx); revoke %.0fµs vs %.0fµs (%.0fx)\n",
				idxPt.ValidateMicros, linPt.ValidateMicros, linPt.ValidateMicros/idxPt.ValidateMicros,
				idxPt.EnforceMicros, linPt.EnforceMicros, linPt.EnforceMicros/idxPt.EnforceMicros)
		}
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Paper)
		}
	case *all:
		for _, e := range bench.All() {
			runOne(e)
		}
	case *run != "":
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "masqbench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			runOne(e)
		}
	default:
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nexperiments:")
		for _, e := range bench.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", e.ID, e.Paper)
		}
		os.Exit(2)
	}
}

func runOne(e bench.Experiment) {
	start := time.Now()
	t := e.Run()
	t.Render(os.Stdout)
	fmt.Printf("  (%s completed in %.1fs wall time)\n\n", e.ID, time.Since(start).Seconds())
}
