package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"masq/internal/simtime"
)

// span is one interval the benchmark recorded around a call into a layer.
// Virtual spans time blocking calls in simulated nanoseconds; host spans
// time non-blocking calls in host nanoseconds since the log was opened.
// Spans of one request (a connection setup, a resolve) share Req, and
// Parent names the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog keeps spans in memory until the repetition ends. A nil log
// records nothing, so untraced repetitions pay one nil check per call.
// Procs on different engine shards record concurrently, hence the mutex.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span ID, so a parent's ID can be handed to its children
// before the parent itself is recorded.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if s.ID == 0 {
		l.next++
		s.ID = l.next
	}
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// virtual records a span of simulated time.
func (l *spanLog) virtual(id, parent, req int64, layer, name string, start, end simtime.Time) {
	if l == nil {
		return
	}
	l.add(span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Clock: "virtual", Start: int64(start), End: int64(end)})
}

// host opens a host-time span; call the returned function to close it.
func (l *spanLog) host(layer, name string) func() {
	if l == nil {
		return func() {}
	}
	start := time.Since(l.t0).Nanoseconds()
	return func() {
		l.add(span{Layer: layer, Name: name, Clock: "host", Start: start, End: time.Since(l.t0).Nanoseconds()})
	}
}

// meanMicros is the mean duration of the virtual spans called name.
func (l *spanLog) meanMicros(name string) float64 {
	if l == nil {
		return 0
	}
	var sum, n int64
	for _, s := range l.spans {
		if s.Name == name && s.Clock == "virtual" {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}

// write dumps the log as JSON lines.
func (l *spanLog) write(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
}
