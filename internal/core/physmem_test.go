package core

import (
	"fmt"
	"testing"

	"repro/internal/vax"
)

// TestPhysLongwordStraddlesFrames reads and writes a VM-physical
// longword that straddles pages 0x30/0x31 on a fresh VM, on a clone
// whose page 0x31 was privatized first (so the halves live in frames
// that are not adjacent), and on the cloned source — directly and
// through the console's DEPOSIT/EXAMINE. Each VM keeps its own value.
func TestPhysLongwordStraddlesFrames(t *testing.T) {
	const at = 0x61FE
	k, src, _ := bootVM(t, Config{}, "start:\thalt\n", nil)
	check := func(vm *VM, v uint32) {
		t.Helper()
		if !vm.writePhys(at, v^0xFFFF0000) {
			t.Fatalf("%s: writePhys(%#x) failed", vm.Name(), at)
		}
		if got, ok := vm.readPhys(at); !ok || got != v^0xFFFF0000 {
			t.Fatalf("%s: readPhys(%#x) = %#x, %t", vm.Name(), at, got, ok)
		}
		if _, err := k.ConsoleCommand(vm, fmt.Sprintf("DEPOSIT %#x %#x", at, v)); err != nil {
			t.Fatalf("%s: %v", vm.Name(), err)
		}
	}
	examine := func(vm *VM, v uint32) {
		t.Helper()
		out, err := k.ConsoleCommand(vm, fmt.Sprintf("EXAMINE %#x", at))
		if want := fmt.Sprintf("P %08X %08X", at, v); err != nil || out != want {
			t.Errorf("%s: EXAMINE = %q, %v; want %q", vm.Name(), out, err, want)
		}
	}

	check(src, 0x11223344)
	c, err := k.Clone(src, "c")
	if err != nil {
		t.Fatal(err)
	}
	if !c.writePhys(0x31*vax.PageSize, 0xCAFE) {
		t.Fatal("privatizing the clone's page 0x31 failed")
	}
	if c.frames[0x31] == c.frames[0x30]+1 {
		t.Fatal("the clone's pages 0x30/0x31 still sit in adjacent frames")
	}
	check(c, 0x55667788)
	check(src, 0x99AABBCC)
	examine(c, 0x55667788)
	examine(src, 0x99AABBCC)
	gaugeInvariant(t, c)
	gaugeInvariant(t, src)
}

// TestGuestLongwordTranslatesEachPage: the VMM's guest-virtual longword
// accesses (exception pushes, REI pops, PCB moves) translate every page
// the longword touches. With S page 0x31 remapped, the high half of a
// longword at S+0x61FE lands in the remapped frame; with it invalid,
// the access takes the second page's fault and stores nothing.
func TestGuestLongwordTranslatesEachPage(t *testing.T) {
	const va = vax.SystemBase + 0x61FE
	k, vm, _ := bootVM(t, Config{}, "start:\thalt\n", nil)
	setSPTE := func(pte vax.PTE) {
		t.Helper()
		if !vm.writePhys(gSPT+4*0x31, uint32(pte)) {
			t.Fatal("guest SPT write failed")
		}
	}

	setSPTE(vax.NewPTE(true, vax.ProtUW, true, 0x40))
	if gf := k.guestWrite(vm, va, 0x11223344, vax.Kernel); gf != nil || vm.halted {
		t.Fatalf("guestWrite faulted: %+v halted=%t", gf, vm.halted)
	}
	if lo, hi := guestLong(t, vm, 0x61FC), guestLong(t, vm, 0x8000); lo>>16 != 0x3344 || hi&0xFFFF != 0x1122 {
		t.Errorf("halves at 0x61FE/0x8000 = %#x/%#x, want 3344/1122", lo>>16, hi&0xFFFF)
	}
	if got := guestLong(t, vm, 0x6200); got != 0 {
		t.Errorf("VM-physical 0x6200 = %#x, want untouched 0", got)
	}
	if got, gf := k.guestRead(vm, va, vax.Kernel); gf != nil || got != 0x11223344 {
		t.Errorf("guestRead = %#x, %+v; want 0x11223344", got, gf)
	}

	setSPTE(vax.NewPTE(false, vax.ProtUW, false, 0x31))
	for _, write := range []bool{false, true} {
		var gf *guestFault
		if write {
			gf = k.guestWrite(vm, va, 0x55667788, vax.Kernel)
		} else {
			_, gf = k.guestRead(vm, va, vax.Kernel)
		}
		if gf == nil || gf.vec != vax.VecTransNotValid || gf.params[1] != va+2 {
			t.Fatalf("write=%t: fault %+v, want translation-not-valid at %#x", write, gf, va+2)
		}
	}
	if lo := guestLong(t, vm, 0x61FC); lo>>16 != 0x3344 || vm.halted {
		t.Errorf("faulting write stored %#x into the first page (halted=%t)", lo>>16, vm.halted)
	}
}

// besideCodeSrc keeps two data cells in the 32-byte line of its code:
// one just before start and one between the BRB and loop.
const besideCodeSrc = `
cell0:	.long 0
start:	movl #200, r1
	clrl r0
	brb loop
cell1:	.long 0
loop:	addl2 #0x100, r0
	sobgtr r1, loop
	movl r0, @#0x80006000
	halt
`

// TestWritePhysDropsOnlyOverlappedDecodes: a VMM longword write into
// a VM's memory beside cached guest code keeps its decodes, and one
// over an instruction drops that instruction's decode alone, so the
// guest runs the new bytes.
func TestWritePhysDropsOnlyOverlappedDecodes(t *testing.T) {
	k, vm, prog := bootVM(t, Config{}, besideCodeSrc, nil)
	phys := func(label string) uint32 { return prog.MustSymbol(label) - vax.SystemBase }
	k.Run(100) // mid-loop: start, the BRB and the loop are cached
	inv := k.CPU.Stats.DecodeInvalidations
	for _, cell := range []string{"cell0", "cell1"} {
		if !vm.writePhys(phys(cell), 0xFFFFFFFF) {
			t.Fatalf("writePhys(%s) failed", cell)
		}
	}
	if got := k.CPU.Stats.DecodeInvalidations - inv; got != 0 {
		t.Errorf("writes beside the code dropped %d decodes, want 0", got)
	}
	if !vm.writePhys(phys("loop")+2, 0x300) { // ADDL2's immediate
		t.Fatal("writePhys over the ADDL2 failed")
	}
	if got := k.CPU.Stats.DecodeInvalidations - inv; got != 1 {
		t.Errorf("a write over the ADDL2 dropped %d decodes, want 1", got)
	}
	runVM(t, k, vm, 100_000)
	// Each pass before the write adds 0x100, each after it 0x300.
	got := guestLong(t, vm, 0x6000)
	if got <= 200*0x100 || got >= 200*0x300 || (got-200*0x100)%0x200 != 0 {
		t.Errorf("r0 = %#x: the guest did not run the rewritten immediate", got)
	}
}
