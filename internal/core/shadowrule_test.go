package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/vax"
)

// roRewriteSrc reads S page 40 (its guest PTE is unmodified, so the
// read-only-shadow scheme maps it read-only), rewrites that guest PTE
// from the longword at VM-physical 0x6000 without a TBIS, then writes
// the page. The write takes the read-only shadow upgrade against the
// rewritten PTE.
const roRewriteSrc = `
start:	movl @#0x80005000, r0
	movl @#0x80006000, @#0x800002A0
	movl #0x12345678, @#0x80005000
	halt
`

// setupRORewrite clears S page 40's guest M bit and stages the PTE the
// guest will install for it: valid, UW, unmodified, frame pfn.
func setupRORewrite(t *testing.T, vm *VM, pfn uint32) {
	t.Helper()
	if !vm.writePhys(gSPT+4*40, uint32(vax.NewPTE(true, vax.ProtUW, false, 40))) ||
		!vm.writePhys(0x6000, uint32(vax.NewPTE(true, vax.ProtUW, false, pfn))) {
		t.Fatal("setup failed")
	}
}

// TestROShadowUpgradeNonexistentFrameHalts: under the read-only-shadow
// scheme, a guest that repoints a filled page at a frame past its
// memory and then writes the page must halt — the upgrade may not map
// the frame, which on a contiguous VM is a neighbour's memory.
func TestROShadowUpgradeNonexistentFrameHalts(t *testing.T) {
	k, vm, _ := bootVM(t, Config{ReadOnlyShadow: true}, roRewriteSrc, nil)
	victim, err := k.CreateVM(VMConfig{MemBytes: gMemSize})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := make([]byte, victim.MemSize)
	for i := range sentinel {
		sentinel[i] = 0xA5
	}
	if err := victim.dmaWrite(0, sentinel); err != nil {
		t.Fatal(err)
	}
	// The frame number the upgrade would turn into the victim's first
	// real page.
	setupRORewrite(t, vm, victim.frames[0]-vm.frames[0])

	runCheckingSpans(t, k, 1_000_000)
	for i, b := range victim.DumpMemory() {
		if b != 0xA5 {
			t.Fatalf("victim memory modified at %#x", i)
		}
	}
	if h, msg := vm.Halted(); !h || !strings.Contains(msg, "nonexistent") {
		t.Fatalf("halted=%t %q, want a nonexistent-page halt", h, msg)
	}
}

// TestROShadowUpgradeNonexistentFrameHaltsClone is the same sequence on
// a COW clone: the upgrade must halt the clone, not index its frame map
// past the end.
func TestROShadowUpgradeNonexistentFrameHaltsClone(t *testing.T) {
	k, src, _ := bootVM(t, Config{ReadOnlyShadow: true}, roRewriteSrc, nil)
	setupRORewrite(t, src, 4096)
	c, err := k.Clone(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	runCheckingSpans(t, k, 1_000_000)
	for _, vm := range []*VM{src, c} {
		if h, msg := vm.Halted(); !h || !strings.Contains(msg, "nonexistent") {
			t.Fatalf("%s: halted=%t %q, want a nonexistent-page halt", vm.Name(), h, msg)
		}
	}
}

// TestPrefetchSkipsPTEOutsideMemory: a speculative prefetch whose guest
// PTE lies past the VM's memory is skipped; only a real reference to
// such a PTE halts the VM. The 16 KB VM's SPT (SLR 4096) runs past its
// memory, and the guest references the last S page whose PTE is still
// inside it.
func TestPrefetchSkipsPTEOutsideMemory(t *testing.T) {
	const memBytes = 16 << 10
	last := uint32(memBytes-gSPT)/4 - 1
	prog, err := asmAssembleAt("start:\tmovl @#0x801EFE00, r0\n\thalt\n", vax.SystemBase+gCode)
	if err != nil {
		t.Fatal(err)
	}
	if va := vax.SystemBase + last*vax.PageSize; va != 0x801EFE00 {
		t.Fatalf("last in-memory S page is %#x", va)
	}
	img := make([]byte, memBytes)
	for i := uint32(0); i < memBytes/vax.PageSize; i++ {
		binary.LittleEndian.PutUint32(img[gSPT+4*i:], uint32(vax.NewPTE(true, vax.ProtUW, true, i)))
	}
	binary.LittleEndian.PutUint32(img[gSPT+4*last:], uint32(vax.NewPTE(true, vax.ProtUW, true, 20)))
	copy(img[gCode:], prog.Code)

	k := New(8<<20, Config{PrefetchGroup: 2})
	vm, err := k.CreateVM(VMConfig{MemBytes: memBytes, Image: img,
		StartPC: prog.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: 4096, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	runVM(t, k, vm, 100_000)
	if _, msg := vm.Halted(); !strings.Contains(msg, "HALT") {
		t.Fatalf("halt reason %q, want the guest's own HALT", msg)
	}
	if vm.Stats.PrefetchFills == 0 {
		t.Error("no prefetch fills: the test no longer exercises the prefetch loop")
	}
}

// TestCOWModifyFaultRewrittenPTERefaults: a clone reads a shared page
// (its shadow holds M clear), then changes its tables without a TBIS so
// they no longer map the page, then writes it. The modify fault finds no
// mapping, drops the stale shadow entry, and the retry reflects the
// guest's own translation-not-valid fault instead of faulting forever.
func TestCOWModifyFaultRewrittenPTERefaults(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		setup     func(vm *VM) bool
	}{
		// S page 40's own PTE becomes invalid.
		{"data PTE", roRewriteSrc, func(vm *VM) bool {
			return vm.writePhys(0x6000, uint32(vax.NewPTE(false, vax.ProtUW, false, 40)))
		}},
		// P0 page 3's PTE lives in S page 48, whose PTE becomes invalid.
		{"PTE page", `
start:	mtpr #0x80006000, #8
	mtpr #4, #9
	movl @#0x600, r0
	clrl @#0x800002C0
	movl #0x12345678, @#0x600
	halt
`, func(vm *VM) bool {
			return vm.writePhys(0x600C, uint32(vax.NewPTE(true, vax.ProtUW, true, 40)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, src, _ := bootVM(t, Config{}, tc.src+`
	.align 4
tnvh:	halt
`, map[vax.Vector]string{vax.VecTransNotValid: "tnvh"})
			if !tc.setup(src) {
				t.Fatal("setup failed")
			}
			c, err := k.Clone(src, "c")
			if err != nil {
				t.Fatal(err)
			}
			k.Run(1_000_000)
			for _, vm := range []*VM{src, c} {
				if h, _ := vm.Halted(); !h {
					t.Fatalf("%s still running after %d modify faults", vm.Name(), vm.Stats.ModifyFaults)
				}
				if vm.Stats.ModifyFaults > 2 {
					t.Errorf("%s took %d modify faults, want at most 2", vm.Name(), vm.Stats.ModifyFaults)
				}
			}
		})
	}
}

// TestShadowRuleNeverGrantsMore checks the shadow-PTE rule as a
// predicate over its whole input space (ROADMAP invariant 1: a shadow
// PTE never grants more than the guest PTE after ring compression).
// Inputs: every protection code, V and M set or clear, the modify-fault
// or read-only-shadow scheme, MMIO emulation off or on, a contiguous
// VM's frame or a clone's private or COW-shared frame, and an in-range,
// device or nonexistent PFN.
func TestShadowRuleNeverGrantsMore(t *testing.T) {
	const privPFN, sharedPFN = 5, 6
	devPFN := VMDiskBase / vax.PageSize
	for _, mmio := range []bool{false, true} {
		k, src, _ := bootVM(t, Config{MMIOEmulatedIO: mmio}, "start:\thalt\n", nil)
		plain, err := k.CreateVM(VMConfig{MemBytes: gMemSize})
		if err != nil {
			t.Fatal(err)
		}
		c, err := k.Clone(src, "c")
		if err != nil {
			t.Fatal(err)
		}
		if !c.writePhys(privPFN*vax.PageSize, 1) { // COW break: private
			t.Fatal("COW break failed")
		}
		if k.cowShared(c.frames[privPFN]) || !k.cowShared(c.frames[sharedPFN]) {
			t.Fatal("clone frames not in the private/shared state the table assumes")
		}
		for _, fr := range []struct {
			name    string
			vm      *VM
			pfn     uint32
			private bool
		}{
			{"contiguous", plain, sharedPFN, true},
			{"private", c, privPFN, true},
			{"shared", c, sharedPFN, false},
		} {
			for _, pfnKind := range []string{"in-range", "device", "nonexistent"} {
				pfn := map[string]uint32{"in-range": fr.pfn, "device": devPFN,
					"nonexistent": fr.vm.MemSize / vax.PageSize}[pfnKind]
				for code := vax.Protection(0); code < 16; code++ {
					for _, valid := range []bool{false, true} {
						for _, mod := range []bool{false, true} {
							for _, ro := range []bool{false, true} {
								gpte := vax.NewPTE(valid, code, mod, pfn)
								where := fmt.Sprintf("mmio=%t %s %s pfn prot=%s V=%t M=%t ro=%t",
									mmio, fr.name, pfnKind, code, valid, mod, ro)
								checkShadowRule(t, where, k, fr.vm, gpte, ro, fr.private,
									pfnKind == "in-range", mmio && pfnKind == "device")
							}
						}
					}
				}
			}
		}
	}
}

// checkShadowRule asserts the rule's verdict and, for a mapping, that it
// grants no access the ring-compressed guest protection denies.
func checkShadowRule(t *testing.T, where string, k *VMM, vm *VM, gpte vax.PTE,
	ro, private, inRange, device bool) {
	t.Helper()
	spte, m := k.shadowPTEFor(vm, gpte, ro)
	want := mapped
	switch {
	case gpte.Prot().Reserved():
		want = noMapReserved
	case !gpte.Valid():
		want = noMapInvalid
	case device:
		want = noMapDevice
	case !inRange:
		want = noMapNonexistent
	}
	if m != want {
		t.Fatalf("%s: verdict %d, want %d", where, m, want)
	}
	if m != mapped {
		return
	}
	if !spte.Valid() || spte.PFN() != vm.frames[gpte.PFN()] {
		t.Fatalf("%s: shadow %#x, want valid frame %#x", where, uint32(spte), vm.frames[gpte.PFN()])
	}
	if ro && !spte.Modified() {
		t.Fatalf("%s: read-only scheme left the shadow M bit clear", where)
	}
	guest := gpte.Prot().Compress()
	for mode := vax.Kernel; mode <= vax.User; mode++ {
		rm := compressMode(mode)
		if spte.Prot().CanRead(rm) != guest.CanRead(rm) {
			t.Fatalf("%s mode=%s: shadow read %t, compressed guest read %t",
				where, mode, spte.Prot().CanRead(rm), guest.CanRead(rm))
		}
		if spte.Prot().CanWrite(rm) && !guest.CanWrite(rm) {
			t.Fatalf("%s mode=%s: shadow grants a write the guest denies", where, mode)
		}
		// A write completes without a fault only through a writable,
		// modified shadow PTE.
		passes := spte.Prot().CanWrite(rm) && spte.Modified()
		if want := gpte.Modified() && private && guest.CanWrite(rm); passes != want {
			t.Fatalf("%s mode=%s: write passes unfaulted %t, want %t", where, mode, passes, want)
		}
	}
}
