package core

import (
	"hash/fnv"
	"testing"

	"repro/internal/vax"
)

// probeSrc leaves every part of the VM state record busy: mapping on
// (bootVM pre-maps), the disk completion pending behind IPL 31, a
// software interrupt requested at level 3, the clock running with its
// interrupt enabled, an uptime cell, and both console interrupt
// enables set.
const probeSrc = `
start:	mtpr #31, #18        ; virtual IPL 31: hold every interrupt
	mtpr #0x40, #32      ; RXCS: interrupt enable
	mtpr #0x40, #34      ; TXCS: interrupt enable
	movl #6, r0          ; KCALL: uptime cell at 0x6100
	movl #0x6100, r1
	mtpr #0, #201
	mtpr #0x41, #24      ; ICCS: run + interrupt enable
	mtpr #3, #20         ; SIRR: software interrupt at level 3
	movl #3, r0          ; KCALL disk read: completion pends at IPL 21
	movl #1, r1
	movl #0x5000, r2
	mtpr #0, #201
spin:	brb spin
`

// probeVM boots probeSrc and runs it into its spin loop, still running.
func probeVM(t *testing.T) (*VMM, *VM) {
	t.Helper()
	k, vm, _ := bootVM(t, Config{}, probeSrc, nil)
	k.Run(20000)
	vecs := vm.irqs.Vectors()
	switch {
	case vm.halted:
		t.Fatalf("probe halted: %s", vm.haltMsg)
	case !vm.mapen || vm.uptime == 0 || !vm.clockOn || !vm.clockIE || vm.ticks == 0:
		t.Fatalf("probe state not set up: mapen %v uptime %#x clock %v/%v ticks %d",
			vm.mapen, vm.uptime, vm.clockOn, vm.clockIE, vm.ticks)
	case vecs[vax.IPLDisk] != vax.VecDisk || vm.sisr != 1<<3:
		t.Fatalf("probe interrupts not pending: disk %#x sisr %#x", uint32(vecs[vax.IPLDisk]), vm.sisr)
	}
	return k, vm
}

// TestCloneMatchesRestoreState: a clone and a checkpoint restore of one
// VM resume from the same state record, and both keep the console's
// interrupt enables.
func TestCloneMatchesRestoreState(t *testing.T) {
	k, vm := probeVM(t)
	img, err := k.Snapshot(vm)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := k.Clone(vm, "clone")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(8<<20, Config{}).Restore("restored", img)
	if err != nil {
		t.Fatal(err)
	}
	if clone.vcpu != restored.vcpu {
		t.Errorf("clone and restore differ:\n clone    %+v\n restored %+v", clone.vcpu, restored.vcpu)
	}
	if clone.vcpu != vm.vcpu {
		t.Errorf("clone differs from its source:\n clone  %+v\n source %+v", clone.vcpu, vm.vcpu)
	}
	for _, v := range []*VM{vm, clone, restored} {
		if !v.cons.rxIE || !v.cons.txIE {
			t.Errorf("%s: console RXCS/TXCS interrupt enables %v/%v, want true/true",
				v.Name(), v.cons.rxIE, v.cons.txIE)
		}
	}
	checkSchedLists(t, k)
}

// TestSnapshotStreamPinned pins the checkpoint stream of the probe VM:
// the state record changes how the VM holds its state, not one byte of
// what a checkpoint carries.
func TestSnapshotStreamPinned(t *testing.T) {
	k, vm := probeVM(t)
	img, err := k.Snapshot(vm)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(img)
	if got, want := h.Sum64(), uint64(0x9b915245a7f74150); len(img) != 2096 || got != want {
		t.Errorf("snapshot stream: %d bytes, FNV-64a %#x; want 2096 bytes, %#x", len(img), got, want)
	}
}
