package cluster

import (
	"runtime"
	"testing"
	"time"
)

// TestTestbedCloseLeavesNoGoroutines: a connected MasQ pair leaves procs
// parked once its engine drains (about ten per testbed). Closing each
// testbed unwinds them, so 50 built-and-closed testbeds leave the
// goroutine count where it started.
func TestTestbedCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		cp, err := NewConnectedPair(DefaultConfig(), ModeMasQ)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.TB.PendingProcs()) == 0 {
			t.Fatal("connected pair left no parked procs; the test would prove nothing")
		}
		cp.TB.Close()
		if n := len(cp.TB.PendingProcs()); n != 0 {
			t.Fatalf("testbed %d: %d procs pending after Close", i, n)
		}
	}
	// Close frees proc coroutines synchronously; give the runtime a moment
	// for any goroutine of its own (a finalizer run) to finish.
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before+2; i++ {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+2 {
		t.Fatalf("goroutines: %d before, %d after 50 closed testbeds; want at most %d", before, after, before+2)
	}
}
