package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/vax"
)

// cloneComputeSrc runs a short arithmetic loop and stores the sum: a
// deterministic guest whose final memory image is identical on every
// run, so a clone's run can be compared byte-for-byte against its
// source's.
const cloneComputeSrc = `
start:	clrl r2
	movl #2000, r11
loop:	addl2 r11, r2
	sobgtr r11, loop
	movl r2, @#0x80006000
	halt
`

// gaugeInvariant checks SharedPages + PrivatePages == page count.
func gaugeInvariant(t *testing.T, vm *VM) {
	t.Helper()
	pages := uint64(vm.MemSize / vax.PageSize)
	if got := vm.Stats.SharedPages + vm.Stats.PrivatePages; got != pages {
		t.Errorf("%s: SharedPages(%d) + PrivatePages(%d) = %d, want %d",
			vm.Name(), vm.Stats.SharedPages, vm.Stats.PrivatePages, got, pages)
	}
}

// TestCloneRunsIdentically boots a template, clones it (and clones the
// clone), runs everything, and requires every VM to halt with an
// identical memory image — the clones shared every page at birth and
// privatized only what they wrote.
func TestCloneRunsIdentically(t *testing.T) {
	kRef, vmRef, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	runVM(t, kRef, vmRef, 10_000_000)
	refDump := vmRef.DumpMemory()

	k, src, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	c1, err := k.Clone(src, "c1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := k.Clone(c1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	pages := uint64(gMemSize / vax.PageSize)
	if c1.Stats.SharedPages != pages || c1.Stats.PrivatePages != 0 {
		t.Fatalf("fresh clone gauges: shared=%d private=%d, want %d/0",
			c1.Stats.SharedPages, c1.Stats.PrivatePages, pages)
	}

	runCheckingSpans(t, k, 10_000_000)
	for _, vm := range []*VM{src, c1, c2} {
		if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
			t.Fatalf("%s did not halt cleanly: %t %q", vm.Name(), h, msg)
		}
		if !bytes.Equal(vm.DumpMemory(), refDump) {
			t.Errorf("%s memory diverged from the uncloned reference run", vm.Name())
		}
		gaugeInvariant(t, vm)
	}
	if c1.Stats.COWBreaks == 0 {
		t.Error("clone ran to completion without a single COW break")
	}
	if c1.Stats.PrivatePages == 0 || c1.Stats.SharedPages == 0 {
		t.Errorf("clone should end partially private: shared=%d private=%d",
			c1.Stats.SharedPages, c1.Stats.PrivatePages)
	}
	checkSchedLists(t, k)
}

// TestCloneWriteIsolation seeds the source, clones it, perturbs the
// clone's seed through the VMM-side store path (writePhys → cowBreak),
// and requires the two guests to compute different results from what is
// physically the same page at clone time.
func TestCloneWriteIsolation(t *testing.T) {
	k, src, _ := bootVM(t, Config{}, `
start:	movl @#0x80006100, r2
	movl r2, r3
	addl2 r3, r2
	addl2 r3, r2
	movl r2, @#0x80006000
	halt
`, nil)
	if !src.writePhys(0x6100, 7) {
		t.Fatal("seed store failed")
	}
	c, err := k.Clone(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	pfn := uint32(0x6100) / vax.PageSize
	oldFrame := c.frames[pfn]
	if !c.writePhys(0x6100, 11) {
		t.Fatal("clone seed store failed")
	}
	if c.Stats.COWBreaks != 1 {
		t.Fatalf("COWBreaks = %d, want 1", c.Stats.COWBreaks)
	}
	if c.frames[pfn] == oldFrame {
		t.Fatal("break did not rebind the frame")
	}
	if src.frames[pfn] != oldFrame {
		t.Fatal("break disturbed the source's frame")
	}
	// The refcount dropped to one: neither side's frame is shared now.
	if k.cowShared(c.frames[pfn]) || k.cowShared(src.frames[pfn]) {
		t.Error("page still marked shared after the break")
	}
	if got := guestLong(t, src, 0x6100); got != 7 {
		t.Fatalf("source seed = %d, want 7", got)
	}
	if got := guestLong(t, c, 0x6100); got != 11 {
		t.Fatalf("clone seed = %d, want 11", got)
	}

	runCheckingSpans(t, k, 10_000_000)
	if got := guestLong(t, src, 0x6000); got != 21 {
		t.Errorf("source result = %d, want 21", got)
	}
	if got := guestLong(t, c, 0x6000); got != 33 {
		t.Errorf("clone result = %d, want 33", got)
	}
	gaugeInvariant(t, src)
	gaugeInvariant(t, c)
	checkSchedLists(t, k)
}

// TestCloneDMAIntoSharedPage drives the virtual disk's DMA engine at a
// clone: a block read lands in a shared page and must break the sharing
// instead of writing through the common frame; a block write must land
// in the clone's private disk image, not the frozen base it shares with
// the source.
func TestCloneDMAIntoSharedPage(t *testing.T) {
	k, src, _ := bootVM(t, Config{}, `start: halt`, nil)
	pattern := bytes.Repeat([]byte{0xA5, 0x5A, 0x3C}, vax.PageSize/3+1)[:vax.PageSize]
	copy(src.Disk().Image()[5*vax.PageSize:], pattern)

	c, err := k.Clone(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	// DMA read from disk into a shared memory page.
	if err := k.diskTransfer(c, false, 5, 0x5E00, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats.COWBreaks != 1 {
		t.Fatalf("disk DMA into shared page: COWBreaks = %d, want 1", c.Stats.COWBreaks)
	}
	got := make([]byte, vax.PageSize)
	if err := c.dmaRead(0x5E00, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Error("DMA read did not land in the clone's memory")
	}
	if v := guestLong(t, src, 0x5E00); v != 0 {
		t.Errorf("DMA into clone leaked into source memory: %#x", v)
	}
	gaugeInvariant(t, c)

	// DMA write from the clone's memory to its disk: the source's disk
	// (sharing the frozen base image) must not see it.
	if err := k.diskTransfer(c, true, 9, 0x5E00, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Disk().Image()[9*vax.PageSize:10*vax.PageSize], pattern) {
		t.Error("disk write did not reach the clone's image")
	}
	if src.Disk().Image()[9*vax.PageSize] != 0 {
		t.Error("clone's disk write leaked into the source's disk")
	}
	checkShadowSpans(t, k)
	checkSchedLists(t, k)
}

// TestCloneCheckpointRestore checkpoints a running clone, restores it
// in place (the supervisor's recovery path), and requires the restore
// to leave the VM fully private — a restored image overwrites every
// page, so no frame may stay shared. The same stream restored into a
// fresh monitor must compute the same result.
func TestCloneCheckpointRestore(t *testing.T) {
	src20k := `
start:	clrl r2
	movl #20000, r11
loop:	addl2 r11, r2
	sobgtr r11, loop
	movl r2, @#0x80006000
	halt
`
	kRef, vmRef, _ := bootVM(t, Config{}, src20k, nil)
	runVM(t, kRef, vmRef, 10_000_000)
	want := guestLong(t, vmRef, 0x6000)

	k, src, _ := bootVM(t, Config{}, src20k, nil)
	c, err := k.Clone(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	k.Run(5000)
	if h, _ := c.Halted(); h {
		t.Fatal("clone finished before the checkpoint; shorten the prefix")
	}
	checkShadowSpans(t, k)
	snap, err := k.Snapshot(c)
	if err != nil {
		t.Fatal(err)
	}

	// In-place restore of the clone onto itself.
	if err := k.restoreInPlace(c, snap); err != nil {
		t.Fatal(err)
	}
	for i, f := range c.frames {
		if k.cowShared(f) {
			t.Fatalf("restored clone still shares page %d (frame %#x)", i, f)
		}
	}
	pages := uint64(gMemSize / vax.PageSize)
	if c.Stats.SharedPages != 0 || c.Stats.PrivatePages != pages {
		t.Errorf("restored clone gauges: shared=%d private=%d, want 0/%d",
			c.Stats.SharedPages, c.Stats.PrivatePages, pages)
	}
	checkShadowSpans(t, k)
	runCheckingSpans(t, k, 10_000_000)
	for _, vm := range []*VM{src, c} {
		if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
			t.Fatalf("%s did not finish: %t %q", vm.Name(), h, msg)
		}
		if got := guestLong(t, vm, 0x6000); got != want {
			t.Errorf("%s result %#x, want %#x", vm.Name(), got, want)
		}
	}

	// The same stream restored into a brand-new monitor.
	k2 := New(8<<20, Config{})
	vm2, err := k2.Restore("revived", snap)
	if err != nil {
		t.Fatal(err)
	}
	runCheckingSpans(t, k2, 10_000_000)
	if got := guestLong(t, vm2, 0x6000); got != want {
		t.Errorf("cross-monitor restore result %#x, want %#x", got, want)
	}
	checkSchedLists(t, k)
	checkSchedLists(t, k2)
}

// TestCloneStraddleStoreAndTBI runs a guest whose first stores after
// cloning are an unaligned longword straddling two shared pages plus
// explicit TBIS/TBIA flushes between touches — the break path must
// privatize both halves and survive the guest invalidating the very
// translations the break just installed. Exercised under both
// modify-fault schemes (Section 4.4.2).
func TestCloneStraddleStoreAndTBI(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"modify-bit", Config{}},
		{"read-only-shadow", Config{ReadOnlyShadow: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, src, _ := bootVM(t, tc.cfg, `
start:	movl #0x11223344, @#0x80005FFE   ; straddles pages 0x2F/0x30
	mtpr #0x80005FFE, #58            ; TBIS one half
	mtpr #0, #57                     ; TBIA everything
	movl #0x55667788, @#0x80004000   ; fresh shared page after the flush
	halt
`, nil)
			c, err := k.Clone(src, "c")
			if err != nil {
				t.Fatal(err)
			}
			runCheckingSpans(t, k, 10_000_000)
			for _, vm := range []*VM{src, c} {
				if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
					t.Fatalf("%s did not halt: %t %q", vm.Name(), h, msg)
				}
			}
			// The scheduler may run either holder first; whoever stores
			// first pays the break and leaves the frame exclusive for the
			// other. The breaks happen exactly once per page either way.
			if n := src.Stats.COWBreaks + c.Stats.COWBreaks; n < 2 {
				t.Errorf("straddling store broke %d pages, want >= 2", n)
			}
			// The straddle pages are now distinct private frames; read the
			// unaligned value back through the page-walking DMA path.
			buf := make([]byte, 8)
			if err := c.dmaRead(0x5FFC, buf); err != nil {
				t.Fatal(err)
			}
			if got := le32(buf[2:]); got != 0x11223344 {
				t.Errorf("straddled store read back %#x, want 0x11223344", got)
			}
			if got := guestLong(t, c, 0x4000); got != 0x55667788 {
				t.Errorf("post-TBIA store = %#x, want 0x55667788", got)
			}
			if src.frames[0x2F] == c.frames[0x2F] || src.frames[0x30] == c.frames[0x30] {
				t.Error("straddle pages still share frames after the break")
			}
			gaugeInvariant(t, src)
			gaugeInvariant(t, c)
		})
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestCloneOvercommit admits a fleet whose nominal footprint exceeds
// the monitor's physical memory — legal precisely because clones only
// occupy what they write — and runs every VM to completion.
func TestCloneOvercommit(t *testing.T) {
	img, prog := guestImage(t, cloneComputeSrc, nil)
	k := New(2<<20, Config{}) // 4096 real pages
	src, err := k.CreateVM(VMConfig{
		MemBytes:  gMemSize,
		Image:     img,
		LoadAt:    0,
		StartPC:   prog.MustSymbol("start"),
		PreMapped: true,
		SBR:       gSPT,
		SLR:       gSPTLen,
		SCBB:      gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.SPs[vax.Kernel] = gKSP
	src.ISP = gISP

	const clones = 40
	for i := 0; i < clones; i++ {
		if _, err := k.Clone(src, ""); err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
	}
	if nominal, real := k.NominalPages(), k.Mem.Pages(); nominal <= real {
		t.Fatalf("fleet is not overcommitted: nominal %d <= physical %d", nominal, real)
	}
	runCheckingSpans(t, k, 50_000_000)
	for _, vm := range k.VMs() {
		if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
			t.Fatalf("%s did not halt: %t %q", vm.Name(), h, msg)
		}
		gaugeInvariant(t, vm)
		if vm != src && vm.ResidentPages() > 16 {
			t.Errorf("%s resident %d pages, want a small fraction of %d",
				vm.Name(), vm.ResidentPages(), gMemSize/vax.PageSize)
		}
	}
	if carved := k.CarvedPages(); carved > k.Mem.Pages() {
		t.Errorf("carved %d pages out of %d physical", carved, k.Mem.Pages())
	}
	checkSchedLists(t, k)
}

// TestCloneRejections: the error paths.
func TestCloneRejections(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `start: halt`, nil)
	k2, vm2, _ := bootVM(t, Config{}, `start: halt`, nil)
	if _, err := k.Clone(nil, "x"); err == nil {
		t.Error("cloning nil succeeded")
	}
	if _, err := k.Clone(vm2, "x"); err == nil {
		t.Error("cloning another monitor's VM succeeded")
	}
	runVM(t, k, vm, 1000)
	if _, err := k.Clone(vm, "x"); err == nil {
		t.Error("cloning a halted VM succeeded")
	}
	runVM(t, k2, vm2, 1000)
	checkSchedLists(t, k)
	checkSchedLists(t, k2)
}
