package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode drives the wire decoder with arbitrary inputs; it must reject
// gracefully, never panic. Seeds cover each protocol family.
func FuzzDecode(f *testing.F) {
	f.Add(Serialize(rocePacket([]byte("seed payload"))...))
	f.Add(Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: PortVXLAN},
		&VXLAN{VNI: 9},
		Payload(Serialize(rocePacket([]byte("inner"))...)),
	))
	f.Add(Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: PortRoCEv2},
		&BTH{OpCode: OpFetchAdd, DestQP: 1, PSN: 1},
		&AtomicETH{VA: 8, RKey: 1, SwapAdd: 2, Compare: 3},
	))
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		Decode(data) // decode errors are fine; panics are not
	})
}

// FuzzSerializeRecycled: a frame serialized into a recycled buffer full of
// stale 0xFF bytes is byte-identical to the same frame serialized into
// fresh memory, and decodes back to the layers it was built from. Seeds
// cover RC write, flow-tagged RoCE, VXLAN, UD and atomic layer sets.
func FuzzSerializeRecycled(f *testing.F) {
	for kind := uint8(0); kind < recycledKinds; kind++ {
		f.Add(kind, []byte("seed payload"), uint32(0x11), uint32(0xfffffe), uint16(kind)*0x101)
	}
	f.Add(uint8(0), []byte{}, uint32(1), uint32(0), uint16(0))
	f.Add(uint8(3), make([]byte, 4096), uint32(0xffffff), uint32(1), uint16(9))
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte, qpn, psn uint32, tag uint16) {
		if len(payload) > 9000 {
			payload = payload[:9000] // keep the largest layer set within the jumbo class
		}
		build := func() []Layer { return recycledLayers(kind, payload, qpn, psn, tag) }
		drainFrames()
		fresh := append([]byte(nil), Serialize(build()...)...)
		fillFramesDirty()
		got := Serialize(build()...)
		if i := firstDiff(got, fresh); i >= 0 {
			t.Fatalf("kind %d: recycled-buffer encode of %d bytes differs from fresh encode (%d bytes) at byte %d", kind, len(got), len(fresh), i)
		}
		pkt, err := Decode(got)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", kind, err)
		}
		tail := Payload(pkt.Payload)
		if pkt.Inner != nil {
			tail = Payload(pkt.InnerRaw)
		}
		if i := firstDiff(Serialize(append(append([]Layer(nil), pkt.Layers...), tail)...), got); i >= 0 {
			t.Fatalf("kind %d: decoded layers re-encode differently at byte %d", kind, i)
		}
		rp := pkt
		if pkt.Inner != nil {
			rp = pkt.Inner
		}
		if bth := rp.BTH(); bth == nil || bth.DestQP != qpn&0xffffff || bth.PSN != psn&0xffffff {
			t.Fatalf("kind %d: BTH %+v, want QP %#x PSN %#x", kind, rp.BTH(), qpn&0xffffff, psn&0xffffff)
		}
		if !bytes.Equal(rp.Payload, recycledPayload(kind, payload)) {
			t.Fatalf("kind %d: decoded payload of %d bytes differs from the %d encoded", kind, len(rp.Payload), len(payload))
		}
	})
}

// firstDiff returns the first index at which a and b differ, or -1 when
// they are equal.
func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// recycledKinds is the number of layer sets recycledLayers builds.
const recycledKinds = 6

// recycledPayload is the payload the kind's layer set carries: atomics
// and their acks carry none.
func recycledPayload(kind uint8, payload []byte) []byte {
	if k := kind % recycledKinds; k == 4 || k == 5 {
		return []byte{}
	}
	return payload
}

// recycledLayers builds one of the layer sets the data path serializes.
func recycledLayers(kind uint8, payload []byte, qpn, psn uint32, tag uint16) []Layer {
	roce := func(op OpCode, ext ...Layer) []Layer {
		ls := []Layer{
			&Ethernet{Dst: MAC{2, 0, 0, 0, 0, 2}, Src: MAC{2, 0, 0, 0, 0, 1}, EtherType: EtherTypeIPv4},
			&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(10, 0, 0, 1), Dst: NewIP(10, 0, 0, 2)},
			&UDP{SrcPort: 49152, DstPort: PortRoCEv2},
			&BTH{OpCode: op, PartKey: 0xffff, DestQP: qpn & 0xffffff, PSN: psn & 0xffffff, AckReq: true},
		}
		return append(ls, ext...)
	}
	pay := Payload(payload)
	switch kind % recycledKinds {
	case 0: // RC WRITE
		return roce(OpWriteOnly, &RETH{VA: 0x1000, RKey: 7, DMALen: uint32(len(payload))}, pay)
	case 1: // flow-tagged RoCE (shared-connection mode)
		ls := roce(OpSendOnlyImm, &ImmDt{Value: 0xdeadbeef}, pay)
		ls[2].(*UDP).DstPort = PortRoCEShared
		return append(ls[:3], append([]Layer{&VXLAN{VNI: 42, FlowTag: tag | 1}}, ls[3:]...)...)
	case 2: // VXLAN-encapsulated RC WRITE
		return []Layer{
			&Ethernet{Dst: MAC{2, 0, 0, 0, 0, 4}, Src: MAC{2, 0, 0, 0, 0, 3}, EtherType: EtherTypeIPv4},
			&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(172, 16, 0, 1), Dst: NewIP(172, 16, 0, 2)},
			&UDP{SrcPort: 54321, DstPort: PortVXLAN},
			&VXLAN{VNI: uint32(tag)},
			Payload(Serialize(roce(OpWriteOnly, &RETH{VA: 0x2000, RKey: 9, DMALen: uint32(len(payload))}, pay)...)),
		}
	case 3: // UD SEND
		return roce(OpUDSendOnly, &DETH{QKey: 0x11111111, SrcQP: uint32(tag)}, pay)
	case 4: // atomic request
		return roce(OpCompareSwap, &AtomicETH{VA: 0x3000, RKey: 3, SwapAdd: uint64(tag), Compare: 5})
	default: // atomic response
		return roce(OpAtomicAcknowledge, &AETH{Syndrome: AckSyndromeACK, MSN: psn & 0xffffff}, &AtomicAckETH{Orig: uint64(qpn)})
	}
}

// drainFrames empties the frame free list, so the next Serialize of each
// class encodes into freshly zeroed memory.
func drainFrames() {
	frames.mu.Lock()
	defer frames.mu.Unlock()
	frames.free = [len(frameClasses)][frameFreeCap][]byte{}
	frames.n = [len(frameClasses)]int{}
}

// dirtyFrames holds the buffers fillFramesDirty recycles, allocated once
// so a fuzz run is not dominated by a megabyte of allocation per input;
// allFF is the pattern they are refilled from.
var (
	dirtyFrames [len(frameClasses)][frameFreeCap][]byte
	allFF       = bytes.Repeat([]byte{0xff}, frameClasses[len(frameClasses)-1])
)

// fillFramesDirty fills every class of the free list with buffers whose
// bytes are all 0xFF.
func fillFramesDirty() {
	drainFrames()
	for c, size := range frameClasses {
		for i := range dirtyFrames[c] {
			if dirtyFrames[c][i] == nil {
				dirtyFrames[c][i] = make([]byte, size)
			}
			b := dirtyFrames[c][i][:size]
			copy(b, allFF)
			putFrame(b)
		}
	}
}
