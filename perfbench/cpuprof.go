package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuBuckets are the cpu.* shares: the repo's modules, the Go runtime
// split into scheduling and memory management, the benchmark's own
// workload code, and everything else.
var cpuBuckets = []string{
	"simtime", "controller", "masq", "virtio", "verbs", "rnic", "simnet",
	"overlay", "cluster", "packet", "apps", "hyper", "mem", "oob", "trace",
	"runtime-sched", "runtime-gc", "perfbench", "other",
}

// cpuShares reads a CPU profile written by runtime/pprof and returns each
// bucket's share of the sampled CPU time. A sample is charged to the
// package of its innermost frame, except that runtime frames other than
// scheduling and memory management (map lookups, memmove, hashing) and
// standard-library frames are charged to the nearest caller in this
// module: they are work that caller asked for.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	sums := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		sums[p.bucket(s.locs)] += v
		total += v
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = float64(sums[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, nil
}

// bucket classifies one sample's stack (innermost location first). The
// runtime frames at the top of the stack decide the sample if one of them
// is scheduling or memory management; otherwise the first frame in this
// module does.
func (p *profile) bucket(locs []uint64) string {
	inRuntime := true
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			name := p.funcNames[fn]
			pkg := funcPackage(name)
			if inRuntime && (pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime") || strings.HasPrefix(pkg, "runtime/")) {
				if b := runtimeBucket(name); b != "" {
					return b
				}
				continue
			}
			inRuntime = false
			if strings.HasPrefix(pkg, "masq/perfbench") {
				return "perfbench"
			}
			if mod, ok := strings.CutPrefix(pkg, "masq/internal/"); ok {
				mod, _, _ = strings.Cut(mod, "/")
				for _, b := range cpuBuckets {
					if b == mod {
						return b
					}
				}
				return "other"
			}
		}
	}
	return "other"
}

// runtimeBucket sorts a runtime function into scheduling (goroutine
// handoff, parking, locks, timers) or memory management (allocation and
// collection), or neither.
func runtimeBucket(fn string) string {
	lname := strings.ToLower(fn)
	name := lname[strings.LastIndexByte(lname, '.')+1:]
	for _, s := range []string{"gc", "mark", "scan", "sweep", "greyobject", "findobject", "wbbuf",
		"bulkbarrier", "malloc", "mcache", "mcentral", "mheap", "mspan", "heapbits", "nextfree",
		"memclr", "newobject", "growslice", "makeslice", "makemap", "newarray", "pagealloc", "scavenge"} {
		if strings.Contains(lname, s) {
			return "runtime-gc"
		}
	}
	for _, s := range []string{"chan", "park", "ready", "lock", "futex", "sema", "schedule", "findrunnable",
		"mcall", "gogo", "gosched", "casgstatus", "execute", "runq", "stealwork", "notesleep", "notewakeup",
		"wakep", "startm", "stopm", "handoffp", "osyield", "usleep", "procyield", "selectgo", "acquirep",
		"releasep", "spinning", "netpoll", "timer", "goexit", "newproc", "syscall", "send", "recv",
		"nanotime", "gfget", "gfput"} {
		if strings.Contains(name, s) {
			return "runtime-sched"
		}
	}
	return ""
}

// funcPackage returns the import path of a symbol such as
// "masq/internal/simtime.(*Engine).dispatch".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// ─── Minimal profile.proto decoder ───────────────────────────────────────

type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location ID → function IDs, innermost first
	funcNames map[uint64]string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the fields of a pprof Profile message the bucketing
// needs: samples (field 2), locations (4), functions (5), strings (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]int64{}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return eachVarint(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < 0 || si >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcNames[id] = strs[si]
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited payload.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed or not.
func eachVarint(wire int, v uint64, data []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
