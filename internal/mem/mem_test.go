package mem

import (
	"bytes"
	"errors"
	"testing"

	"masq/internal/quickcheck"
)

const gb = 1 << 30

func TestPhysReserveAccounting(t *testing.T) {
	p := NewPhys(4 * gb)
	if p.Capacity() != 4*gb || p.Free() != 4*gb {
		t.Fatalf("capacity %d free %d", p.Capacity(), p.Free())
	}
	if err := p.Reserve(3 * gb); err != nil {
		t.Fatal(err)
	}
	if p.Reserved() != 3*gb || p.Free() != gb {
		t.Fatalf("reserved %d free %d", p.Reserved(), p.Free())
	}
	if err := p.Reserve(2 * gb); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-reserve err = %v", err)
	}
	p.Release(gb)
	if err := p.Reserve(2 * gb); err != nil {
		t.Fatal(err)
	}
}

func TestPhysReadWriteAcrossPages(t *testing.T) {
	p := NewPhys(gb)
	hpa, err := p.AllocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*PageSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	off := hpa + 50 // straddle page boundaries
	if err := p.Write(off, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestPhysLazyBacking(t *testing.T) {
	p := NewPhys(96 * gb) // must not actually allocate 96 GB
	if err := p.Reserve(90 * gb); err != nil {
		t.Fatal(err)
	}
	if len(p.pages) != 0 {
		t.Fatalf("pages allocated without touch: %d", len(p.pages))
	}
	hpa, _ := p.AllocPages(1)
	p.Write(hpa, []byte{1})
	if len(p.pages) != 1 {
		t.Fatalf("pages = %d, want 1", len(p.pages))
	}
}

func newHostSpace(t *testing.T) (*Phys, *AddrSpace) {
	t.Helper()
	phys := NewPhys(gb)
	host := NewAddrSpace("hva", phys, phys.AllocPages)
	return phys, host
}

func TestAddrSpaceAllocReadWrite(t *testing.T) {
	_, host := newHostSpace(t)
	va, err := host.Alloc(10000)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello through the page table")
	if err := host.Write(va+123, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := host.Read(va+123, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestAddrSpaceUnmappedAccess(t *testing.T) {
	_, host := newHostSpace(t)
	if err := host.Read(0xdead000, make([]byte, 4)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v", err)
	}
	if _, err := host.Translate(0xdead000); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v", err)
	}
}

// TestLayeredSpaces builds the full GVA→GPA→HVA→HPA chain of Appendix B and
// checks that a write through the top layer is visible at the resolved
// physical address.
func TestLayeredSpaces(t *testing.T) {
	phys := NewPhys(gb)
	hva := NewAddrSpace("hva", phys, phys.AllocPages) // QEMU's address space
	gpa := NewAddrSpace("gpa", hva, hva.AllocBacking) // guest-physical (VM RAM)
	gva := NewAddrSpace("gva", gpa, gpa.AllocBacking) // application space
	va, err := gva.Alloc(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("three layers down")
	if err := gva.Write(va+PageSize-5, msg); err != nil {
		t.Fatal(err)
	}

	// Manual walk, as MasQ's frontend/backend do it.
	g, err := gva.Translate(va + PageSize - 5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := gpa.Translate(g)
	if err != nil {
		t.Fatal(err)
	}
	hpa, err := hva.Translate(h)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := phys.Read(hpa, got[:5]); err != nil { // first 5 bytes end the page
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], msg[:5]) {
		t.Fatalf("phys bytes %q, want %q", got[:5], msg[:5])
	}
}

func TestTranslateRangeMergesContiguous(t *testing.T) {
	phys := NewPhys(gb)
	host := NewAddrSpace("hva", phys, phys.AllocPages)
	va, err := host.Alloc(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := host.TranslateRange(va, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 1 || ext[0].Len != 4*PageSize {
		t.Fatalf("extents = %+v, want one merged extent", ext)
	}
}

func TestTranslateRangeSplitsDiscontiguous(t *testing.T) {
	phys := NewPhys(gb)
	host := NewAddrSpace("hva", phys, phys.AllocPages)
	p1, _ := phys.AllocPages(1)
	_, _ = phys.AllocPages(1) // hole
	p2, _ := phys.AllocPages(1)
	host.Map(0x10000, p1, 1)
	host.Map(0x10000+PageSize, p2, 1)
	ext, err := host.TranslateRange(0x10000, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 2 {
		t.Fatalf("extents = %+v, want 2", ext)
	}
}

func TestPinUnpin(t *testing.T) {
	_, host := newHostSpace(t)
	va, _ := host.Alloc(2 * PageSize)
	ext, err := host.Pin(va, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) == 0 {
		t.Fatal("no extents from Pin")
	}
	if err := host.Unpin(va, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := host.Unpin(va, 2*PageSize); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double unpin err = %v", err)
	}
}

func TestPinUnmappedFails(t *testing.T) {
	_, host := newHostSpace(t)
	if _, err := host.Pin(0x999000, PageSize); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	_, host := newHostSpace(t)
	if err := host.Map(0x1001, 0x2000, 1); err == nil {
		t.Fatal("unaligned Map accepted")
	}
	if err := host.Map(0x1000, 0x2001, 1); err == nil {
		t.Fatal("unaligned Map accepted")
	}
}

func TestReadWriteQuickRoundtrip(t *testing.T) {
	phys := NewPhys(gb)
	host := NewAddrSpace("hva", phys, phys.AllocPages)
	const size = 64 * 1024
	va, err := host.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		// Every offset in the mapping is fair game; the write is clipped
		// so it ends at or before the mapping's last byte.
		if room := size - int(off); len(data) > room {
			data = data[:room]
		}
		if len(data) == 0 {
			return true
		}
		addr := va + uint64(off)
		if err := host.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := host.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	quickcheck.Check(t, f, 0)
}

// TestReadWriteCrossingMappingEnd pins the boundary the roundtrip property
// stays inside: an access that starts in the mapping but runs past its end
// is refused with ErrBadAddress, never silently truncated.
func TestReadWriteCrossingMappingEnd(t *testing.T) {
	phys := NewPhys(gb)
	host := NewAddrSpace("hva", phys, phys.AllocPages)
	const size = 64 * 1024
	va, err := host.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 28)
	addr := va + 0xfffd // 3 bytes in range, 25 past the end
	if err := host.Write(addr, buf); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("write across mapping end: err = %v, want ErrBadAddress", err)
	}
	if err := host.Read(addr, buf); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("read across mapping end: err = %v, want ErrBadAddress", err)
	}
	if err := host.Write(va+size-3, buf[:3]); err != nil {
		t.Fatalf("write ending at mapping end: %v", err)
	}
}

func TestAllocZeroSizeGetsOnePage(t *testing.T) {
	_, host := newHostSpace(t)
	va, err := host.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Write(va, []byte{1}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateToCopiesPagesAndPreservesVAs(t *testing.T) {
	phys := NewPhys(gb)
	hva := NewAddrSpace("hva", phys, phys.AllocPages)
	src := NewAddrSpace("src", hva, hva.AllocBacking)
	va1, _ := src.Alloc(2 * PageSize)
	va2, _ := src.Alloc(PageSize)
	src.Write(va1+100, []byte("first region"))
	src.Write(va2, []byte("second region"))

	phys2 := NewPhys(gb)
	hva2 := NewAddrSpace("hva2", phys2, phys2.AllocPages)
	dst := NewAddrSpace("dst", hva2, hva2.AllocBacking)
	if err := src.MigrateTo(dst); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 12)
	if err := dst.Read(va1+100, b); err != nil || string(b) != "first region" {
		t.Fatalf("read after migrate: %q, %v", b, err)
	}
	b = make([]byte, 13)
	if err := dst.Read(va2, b); err != nil || string(b) != "second region" {
		t.Fatalf("read after migrate: %q, %v", b, err)
	}
	// New allocations in dst must not collide with migrated VAs.
	va3, err := dst.Alloc(PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if va3 == va1 || va3 == va2 {
		t.Fatalf("post-migration alloc reused VA %#x", va3)
	}
}

func TestMigrateRefusesPinnedMemory(t *testing.T) {
	phys := NewPhys(gb)
	hva := NewAddrSpace("hva", phys, phys.AllocPages)
	src := NewAddrSpace("src", hva, hva.AllocBacking)
	va, _ := src.Alloc(PageSize)
	if _, err := src.PinToPhys(va, PageSize); err != nil {
		t.Fatal(err)
	}
	if !src.Pinned() {
		t.Fatal("Pinned() false after pin")
	}
	dst := NewAddrSpace("dst", hva, hva.AllocBacking)
	if err := src.MigrateTo(dst); err == nil {
		t.Fatal("migration of pinned memory accepted")
	}
	if err := src.UnpinToPhys(va, PageSize); err != nil {
		t.Fatal(err)
	}
	if src.Pinned() {
		t.Fatal("Pinned() true after UnpinToPhys")
	}
	if err := src.MigrateTo(dst); err != nil {
		t.Fatalf("migration after unpin: %v", err)
	}
}

func TestUnpinToPhysReleasesEveryLayer(t *testing.T) {
	phys := NewPhys(gb)
	hva := NewAddrSpace("hva", phys, phys.AllocPages)
	gpa := NewAddrSpace("gpa", hva, hva.AllocBacking)
	gva := NewAddrSpace("gva", gpa, gpa.AllocBacking)
	va, _ := gva.Alloc(3 * PageSize)
	if _, err := gva.PinToPhys(va, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if !gva.Pinned() || !gpa.Pinned() || !hva.Pinned() {
		t.Fatal("PinToPhys did not pin every layer")
	}
	if err := gva.UnpinToPhys(va, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if gva.Pinned() || gpa.Pinned() || hva.Pinned() {
		t.Fatal("UnpinToPhys left a layer pinned")
	}
}

func TestMappedPagesSorted(t *testing.T) {
	phys := NewPhys(gb)
	s := NewAddrSpace("s", phys, phys.AllocPages)
	s.Alloc(PageSize)
	s.Alloc(2 * PageSize)
	pages := s.MappedPages()
	if len(pages) != 3 {
		t.Fatalf("pages = %v", pages)
	}
	for i := 1; i < len(pages); i++ {
		if pages[i] <= pages[i-1] {
			t.Fatalf("pages not sorted: %v", pages)
		}
	}
}
