package core

import (
	"strings"
	"testing"
)

// TestSnapshotRestoreRoundTrip checkpoints a VM mid-computation,
// restores it into a brand-new monitor, and requires the continuation
// to produce exactly the result an uninterrupted run produces.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := `
start:	clrl r2
	movl #20000, r11
loop:	addl2 r11, r2
	sobgtr r11, loop
	movl r2, @#0x80006000
	halt
`
	// Reference: uninterrupted run.
	kRef, vmRef, _ := bootVM(t, Config{}, src, nil)
	runVM(t, kRef, vmRef, 10_000_000)
	want := guestLong(t, vmRef, 0x6000)
	if want == 0 {
		t.Fatal("reference run produced nothing")
	}

	// Interrupted run: stop partway, snapshot, restore elsewhere.
	k1, vm1, _ := bootVM(t, Config{}, src, nil)
	k1.Run(5000) // partway through the loop
	if h, _ := vm1.Halted(); h {
		t.Fatal("ran to completion before the snapshot; shorten the prefix")
	}
	snap, err := k1.Snapshot(vm1)
	if err != nil {
		t.Fatal(err)
	}

	k2 := New(8<<20, Config{})
	vm2, err := k2.Restore("revived", snap)
	if err != nil {
		t.Fatal(err)
	}
	k2.Run(10_000_000)
	if h, msg := vm2.Halted(); !h || !strings.Contains(msg, "HALT") {
		t.Fatalf("restored VM did not finish: %t %q", h, msg)
	}
	if got := guestLong(t, vm2, 0x6000); got != want {
		t.Errorf("restored result %#x, want %#x", got, want)
	}
	// The original can keep running too (forked state).
	k1.Run(10_000_000)
	if got := guestLong(t, vm1, 0x6000); got != want {
		t.Errorf("original result %#x, want %#x", got, want)
	}
	checkSchedLists(t, k1)
	checkSchedLists(t, k2)
}

// TestSnapshotPreservesVirtualizedState checks the virtualized
// registers and device state survive the trip.
func TestSnapshotPreservesVirtualizedState(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	mtpr #21, #18        ; park at IPL 21
spin:	brb spin
`, nil)
	copy(vm.Disk().Image(), []byte("persistent"))
	vm.FeedConsole("xy")
	k.Run(20000)
	snap, err := k.Snapshot(vm)
	if err != nil {
		t.Fatal(err)
	}

	k2 := New(8<<20, Config{})
	vm2, err := k2.Restore("copy", snap)
	if err != nil {
		t.Fatal(err)
	}
	if vm2.vmpsl.IPL() != 21 {
		t.Errorf("restored virtual IPL = %d, want 21", vm2.vmpsl.IPL())
	}
	if string(vm2.Disk().Image()[:10]) != "persistent" {
		t.Error("disk image lost")
	}
	if vm2.scbb != vm.scbb || vm2.sbr != vm.sbr || vm2.slr != vm.slr || !vm2.mapen {
		t.Error("virtualized mapping registers lost")
	}
	// Console input is host-side transient and intentionally not part
	// of the snapshot; memory must match exactly.
	d1, d2 := vm.DumpMemory(), vm2.DumpMemory()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("memory differs at %#x", i)
		}
	}
	checkSchedLists(t, k)
	checkSchedLists(t, k2)
}

// TestRestoreFlushesDecodeCache restores a snapshot into a monitor that
// has been executing VM code: every cached decoded instruction must be
// dropped, and the restored VM must still run to the right answer.
func TestRestoreFlushesDecodeCache(t *testing.T) {
	src := `
start:	clrl r2
	movl #20000, r11
loop:	addl2 r11, r2
	sobgtr r11, loop
	movl r2, @#0x80006000
	halt
`
	k, vm, _ := bootVM(t, Config{}, src, nil)
	k.Run(5000) // partway through the loop, decode cache warm
	if k.CPU.Stats.DecodeHits == 0 {
		t.Fatal("guest loop produced no decode-cache hits")
	}
	snap, err := k.Snapshot(vm)
	if err != nil {
		t.Fatal(err)
	}

	invBefore := k.CPU.Stats.DecodeInvalidations
	vm2, err := k.Restore("revived", snap)
	if err != nil {
		t.Fatal(err)
	}
	if k.CPU.Stats.DecodeInvalidations == invBefore {
		t.Error("restore into a warm monitor invalidated no decodes")
	}
	k.Run(50_000_000)
	if h, msg := vm2.Halted(); !h || !strings.Contains(msg, "HALT") {
		t.Fatalf("restored VM did not finish: %t %q", h, msg)
	}
	want := uint32(20000) * 20001 / 2
	if got := guestLong(t, vm2, 0x6000); got != want {
		t.Errorf("restored result %#x, want %#x", got, want)
	}
	checkSchedLists(t, k)
}

func TestSnapshotErrors(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, "start:\thalt", nil)
	runVM(t, k, vm, 1000)
	if _, err := k.Snapshot(vm); err == nil {
		t.Error("snapshot of a halted VM should fail")
	}
	k2 := New(8<<20, Config{})
	if _, err := k2.Restore("x", []byte("junkjunkjunk")); err == nil {
		t.Error("restore of junk should fail")
	}
	if _, err := k2.Restore("x", nil); err == nil {
		t.Error("restore of nil should fail")
	}
	checkSchedLists(t, k)
	checkSchedLists(t, k2)
}
