package packet

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestFrameFreeListBounded: each class keeps at most frameFreeCap free
// buffers, and a buffer whose capacity is not a class size (a copy, a
// sub-slice, a test's own make) is never adopted.
func TestFrameFreeListBounded(t *testing.T) {
	drainFrames()
	defer drainFrames()
	for i := 0; i < 2*frameFreeCap; i++ {
		putFrame(make([]byte, 0, frameClasses[1]))
	}
	putFrame(make([]byte, 600))
	putFrame(make([]byte, 0, frameClasses[len(frameClasses)-1]+1))
	frames.mu.Lock()
	defer frames.mu.Unlock()
	for c, n := range frames.n {
		want := 0
		if c == 1 {
			want = frameFreeCap
		}
		if n != want {
			t.Errorf("class %d B holds %d free buffers, want %d", frameClasses[c], n, want)
		}
	}
}

// TestFramesRecycleAcrossGoroutines: engines on different goroutines
// serialize, decode and release through the one shared free list; every
// frame decodes to the bytes its own goroutine wrote. Run it under -race.
func TestFramesRecycleAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pool Pool
			pay := bytes.Repeat([]byte{byte(g)}, 100+g*300)
			for i := 0; i < 500; i++ {
				pkt, err := pool.Decode(Serialize(rocePacket(pay)...))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(pkt.Payload, pay) {
					t.Errorf("goroutine %d: payload of another frame", g)
					return
				}
				pkt.Release()
				runtime.Gosched() // interleave the goroutines' free-list traffic
			}
		}(g)
	}
	wg.Wait()
}
