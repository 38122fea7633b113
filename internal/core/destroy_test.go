package core

import (
	"strings"
	"testing"
)

func TestDestroyRequiresHalted(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	if err := k.DestroyVM(vm); err == nil || !strings.Contains(err.Error(), "live") {
		t.Fatalf("destroy of live VM = %v, want a live-VM refusal", err)
	}
	runVM(t, k, vm, 10_000_000)
	if err := k.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if len(k.VMs()) != 0 {
		t.Fatalf("%d VMs after destroy", len(k.VMs()))
	}
	if err := k.DestroyVM(vm); err == nil {
		t.Fatal("double destroy succeeded")
	}
	checkSchedLists(t, k)
}

// TestDestroyRecyclesContiguousRun pins the takeRun/freeRun pairing: a
// destroyed full-geometry VM's pages satisfy the next same-geometry
// CreateVM without carving fresh memory.
func TestDestroyRecyclesContiguousRun(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	runVM(t, k, vm, 10_000_000)
	if err := k.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	free := k.FreePages()

	img, prog := guestImage(t, cloneComputeSrc, nil)
	vm2, err := k.CreateVM(VMConfig{
		MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := k.FreePages(); got != free {
		t.Fatalf("free pages %d after recycled create, want %d (carved fresh)", got, free)
	}
	// The recycled VM must start from zeroed, decode-invalidated pages:
	// it runs to the same halt as its predecessor.
	vm2.SPs[0] = gKSP
	k.CPU.ClearHalt()
	runVM(t, k, vm2, 10_000_000)
	checkSchedLists(t, k)
}

// TestDestroyCloneDropsRefs destroys a clone and checks the shared
// frames survive for the source while privatized frames recycle.
func TestDestroyCloneDropsRefs(t *testing.T) {
	k, src, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	c1, err := k.Clone(src, "c1")
	if err != nil {
		t.Fatal(err)
	}
	k.HaltVM(c1, "test teardown")
	if err := k.DestroyVM(c1); err != nil {
		t.Fatal(err)
	}
	// The source still runs to completion on its shared frames.
	runVM(t, k, src, 10_000_000)
	if len(k.VMs()) != 1 {
		t.Fatalf("%d VMs, want just the source", len(k.VMs()))
	}
	checkSchedLists(t, k)
}

func TestDestroyKeepsIDsUnique(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	first := vm.ID
	runVM(t, k, vm, 10_000_000)
	if err := k.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	img, prog := guestImage(t, cloneComputeSrc, nil)
	vm2, err := k.CreateVM(VMConfig{
		MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm2.ID == first {
		t.Fatalf("new VM reused id %d of a destroyed VM", first)
	}
	if got := k.VMByID(vm2.ID); got != vm2 {
		t.Fatalf("VMByID(%d) = %v", vm2.ID, got)
	}
	if got := k.VMByID(first); got != nil {
		t.Fatalf("VMByID(%d) = %v for a destroyed VM", first, got)
	}
	checkSchedLists(t, k)
}

func TestHaltVMExported(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	k.HaltVM(vm, "operator says stop")
	halted, msg := vm.Halted()
	if !halted || msg != "operator says stop" {
		t.Fatalf("halted=%v msg=%q", halted, msg)
	}
	k.HaltVM(vm, "again") // idempotent: must not clobber the message
	if _, msg := vm.Halted(); msg != "operator says stop" {
		t.Fatalf("msg = %q after double halt", msg)
	}
	checkSchedLists(t, k)
}
