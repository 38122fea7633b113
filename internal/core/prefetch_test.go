package core

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/vax"
)

// Prefetch-group edge cases (Config.PrefetchGroup, the Section 4.3.1
// ablation). The tests drive fillShadow directly (the same entry the
// TNV handler uses) so they can assert exactly which shadow slots a
// prefetch touched; setupP0 stands in for the MTPR P0BR/P0LR emulation
// by writing the VM fields the IPR path writes.

// setupP0 points the VM's P0 region at a guest page table located at
// VM-physical tablePhys (guest S va 0x80000000+tablePhys under the
// identity SPT the test image builds), mapping P0 page i to VM frame
// frame0+i.
func setupP0(t *testing.T, vm *VM, tablePhys, pages, frame0 uint32, modified bool) {
	t.Helper()
	for i := uint32(0); i < pages; i++ {
		if !vm.writePhys(tablePhys+4*i, uint32(vax.NewPTE(true, vax.ProtUW, modified, frame0+i))) {
			t.Fatal("P0 table write failed")
		}
	}
	vm.p0br = vax.SystemBase + tablePhys
	vm.p0lr = pages
}

// shadowPTE reads the live shadow PTE for va.
func shadowPTE(t *testing.T, k *VMM, vm *VM, va uint32) vax.PTE {
	t.Helper()
	tab, i, ok := vm.shadow.entry(va)
	if !ok {
		t.Fatalf("no shadow slot for %#x", va)
	}
	v, err := k.Mem.LoadLong(tab.phys + 4*i)
	if err != nil {
		t.Fatal(err)
	}
	return vax.PTE(v)
}

func TestBatchFillStopsAtLengthRegister(t *testing.T) {
	// P0LR = 2: a prefetch group of 8 may fill page 1 but never page 2,
	// and a later reference beyond the length register still faults to
	// the guest.
	k, vm, _ := bootVM(t, Config{PrefetchGroup: 8}, "start:\thalt\n", nil)
	setupP0(t, vm, 0x300, 8, 40, true)
	vm.p0lr = 2

	if gf := k.fillShadow(vm, 0, false); gf != nil {
		t.Fatalf("fill faulted: %+v", gf)
	}
	if vm.Stats.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d, want 1 (length register caps the group)", vm.Stats.PrefetchFills)
	}
	if spte := shadowPTE(t, k, vm, 2*vax.PageSize); spte != nullPTE {
		t.Errorf("page 2 shadow = %#x, want null (beyond P0LR)", uint32(spte))
	}
	if gf := k.fillShadow(vm, 2*vax.PageSize, false); gf == nil || gf.vec != vax.VecAccessViol {
		t.Errorf("length violation not reflected: %+v", gf)
	}
}

func TestBatchFillPreservesModifyFault(t *testing.T) {
	// Neighbors are prefetched as reads: a clean guest PTE (M=0) must
	// yield a clean shadow PTE, so the guest's first write to the
	// prefetched page still takes its modify fault end to end.
	k, vm, _ := bootVM(t, Config{PrefetchGroup: 8}, `
start:	mtpr #0x80000300, #8 ; P0BR (guest S va of the table)
	mtpr #8, #9          ; P0LR
	movl @#0, r2         ; read page 0: demand fill + prefetched neighbors
	movl #0x1234, @#0x200 ; first write to prefetched clean page 1
	halt
`, nil)
	for i := uint32(0); i < 8; i++ {
		if !vm.writePhys(0x300+4*i, uint32(vax.NewPTE(true, vax.ProtUW, false, 40+i))) {
			t.Fatal("P0 table write failed")
		}
	}
	runVM(t, k, vm, 100000)
	if vm.Stats.PrefetchFills == 0 {
		t.Error("no prefetch fills recorded")
	}
	if vm.Stats.ModifyFaults == 0 {
		t.Error("write to prefetched clean page took no modify fault")
	}
	if g := guestLong(t, vm, 41*vax.PageSize); g != 0x1234 {
		t.Errorf("write landed as %#x, want 0x1234 in frame 41", g)
	}
	gpte := vax.PTE(guestLong(t, vm, 0x300+4))
	if !gpte.Modified() {
		t.Error("guest PTE<M> for page 1 not set after the write")
	}
}

func TestTBISInvalidatesOnePTEOfCluster(t *testing.T) {
	// Guest TBIS (MTPR #58) on one page of a prefetched group nulls just
	// that slot; the refill maps it again.
	k, vm, _ := bootVM(t, Config{PrefetchGroup: 8}, "start:\thalt\n", nil)
	setupP0(t, vm, 0x300, 8, 40, true)

	if gf := k.fillShadow(vm, 0, false); gf != nil {
		t.Fatalf("fill faulted: %+v", gf)
	}
	if vm.Stats.PrefetchFills != 7 {
		t.Fatalf("PrefetchFills = %d, want 7", vm.Stats.PrefetchFills)
	}
	vm.shadow.invalidate(k, vax.PageSize) // the MTPR TBIS emulation path
	if spte := shadowPTE(t, k, vm, vax.PageSize); spte != nullPTE {
		t.Fatalf("TBIS left page 1 shadow = %#x, want null", uint32(spte))
	}
	for p := uint32(0); p < 8; p++ {
		if spte := shadowPTE(t, k, vm, p*vax.PageSize); p != 1 && spte == nullPTE {
			t.Errorf("TBIS of page 1 disturbed page %d", p)
		}
	}
	if gf := k.fillShadow(vm, vax.PageSize, false); gf != nil {
		t.Fatalf("refill faulted: %+v", gf)
	}
	if spte := shadowPTE(t, k, vm, vax.PageSize); !spte.Valid() || spte.PFN() != vm.frames[41] {
		t.Errorf("after refill page 1 shadow = %#x, want valid frame %d", uint32(spte), vm.frames[41])
	}
}

func TestShadowRunPoolRecyclesHaltedVM(t *testing.T) {
	// A halted VM's shadow-table runs go back to the pool; the next
	// CreateVM must recycle them and run correctly on the recycled
	// frames (clear-on-reuse restores the null-PTE default).
	k, vm1, _ := bootVM(t, Config{}, "start:\tmovl #7, @#0x80006000\n\thalt\n", nil)
	runVM(t, k, vm1, 100000)
	if k.Stats.ShadowPoolHits != 0 {
		t.Fatalf("first VM hit the pool (%d hits)", k.Stats.ShadowPoolHits)
	}

	img, prog := guestImage(t, "start:\tmovl #9, @#0x80006000\n\thalt\n", nil)
	vm2, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: img,
		StartPC: prog.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vm2.SPs[vax.Kernel] = gKSP
	vm2.ISP = gISP
	if k.Stats.ShadowPoolHits == 0 {
		t.Fatal("second VM's shadow space did not recycle the halted VM's runs")
	}
	k.CPU.ClearHalt() // console restart: every VM had halted
	runVM(t, k, vm2, 100000)
	if got := guestLong(t, vm2, 0x6000); got != 9 {
		t.Errorf("second VM store = %d, want 9", got)
	}
}

func TestLDPCTXSVPCTXNoAlloc(t *testing.T) {
	// Tentpole regression: guest context switches ride the VMM slow
	// path constantly, so neither LDPCTX nor SVPCTX may allocate in
	// steady state (the PCB image stages through per-VM scratch).
	k, vm, _ := bootVM(t, Config{}, "start:\thalt\n", nil)
	const pcbPhys = 0x5000
	vm.pcbb = pcbPhys
	put := func(off, v uint32) {
		if !vm.writePhys(pcbPhys+off, v) {
			t.Fatal("PCB write failed")
		}
	}
	// A PCB that reloads the current mapping state: same P0/P1 bases,
	// so the shadow tables stay put and the calls are pure register
	// and stack traffic.
	put(cpu.PCBKSP, gKSP)
	put(cpu.PCBESP, gESP)
	put(cpu.PCBSSP, gSSP)
	put(cpu.PCBUSP, gUSP)
	put(cpu.PCBP0BR, vm.p0br)
	put(cpu.PCBP0LR, vm.p0lr)
	put(cpu.PCBP1BR, vm.p1br)
	put(cpu.PCBP1LR, vm.p1lr)
	put(cpu.PCBPC, vax.SystemBase+gCode)
	put(cpu.PCBPSL, 0)
	info := &vax.VMTrapInfo{NextPC: vax.SystemBase + gCode}

	ld := testing.AllocsPerRun(200, func() {
		vm.SPs[vax.Kernel] = gKSP // LDPCTX pushes 8 bytes; stop the drift
		k.emulateLDPCTX(vm, info)
		if h, msg := vm.Halted(); h {
			t.Fatalf("VM halted in LDPCTX: %s", msg)
		}
	})
	sv := testing.AllocsPerRun(200, func() {
		// SVPCTX saves the live SP first; resume PC/PSL sit at the
		// stack top it pops from.
		k.CPU.SetSP(gKSP - 8)
		k.emulateSVPCTX(vm, info)
		if h, msg := vm.Halted(); h {
			t.Fatalf("VM halted in SVPCTX: %s", msg)
		}
	})
	if ld != 0 || sv != 0 {
		t.Errorf("allocs per op: LDPCTX %.1f SVPCTX %.1f, want 0/0", ld, sv)
	}
	if vm.Stats.SlowPathAllocs != 0 {
		t.Errorf("SlowPathAllocs = %d, want 0", vm.Stats.SlowPathAllocs)
	}
}
