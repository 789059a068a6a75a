package packet

import "sync"

// frameClasses are the capacities of the recycled wire-frame buffers: an
// ACK, a 512 B write, and 1, 2 and 4 KiB MTU data packets with headroom
// for the headers, plus jumbo frames. Larger frames are allocated exactly
// and left to the garbage collector.
var frameClasses = [...]int{128, 640, 1152, 2176, 4224, 9216}

// frameFreeCap bounds the free buffers kept per class. Frames in flight
// beyond it are allocated afresh and dropped on return, so a burst cannot
// pin its peak working set for the rest of the process.
const frameFreeCap = 64

// frames is the package's one free list of wire-frame buffers, shared by
// every engine (and so every goroutine) in the process. Serialize draws
// from it; Packet.Release on a Pool-decoded packet returns to it.
var frames struct {
	mu   sync.Mutex
	free [len(frameClasses)][frameFreeCap][]byte
	n    [len(frameClasses)]int
}

// frameClass returns the smallest class holding n bytes, or -1.
func frameClass(n int) int {
	for i, c := range frameClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// getFrame returns an n-byte buffer with arbitrary contents: a recycled
// one when its class has one free, otherwise a fresh allocation of the
// class capacity so that it can be recycled later.
func getFrame(n int) []byte {
	c := frameClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	frames.mu.Lock()
	if k := frames.n[c]; k > 0 {
		b := frames.free[c][k-1]
		frames.free[c][k-1] = nil
		frames.n[c] = k - 1
		frames.mu.Unlock()
		return b[:n]
	}
	frames.mu.Unlock()
	return make([]byte, n, frameClasses[c])
}

// putFrame hands b back to the free list. Buffers whose capacity is not
// exactly a class size did not come from getFrame and are left to the
// garbage collector, as is any buffer arriving at a full class.
func putFrame(b []byte) {
	c := frameClass(cap(b))
	if c < 0 || cap(b) != frameClasses[c] {
		return
	}
	frames.mu.Lock()
	if k := frames.n[c]; k < frameFreeCap {
		frames.free[c][k] = b[:0]
		frames.n[c] = k + 1
	}
	frames.mu.Unlock()
}
