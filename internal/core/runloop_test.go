package core

import (
	"strings"
	"testing"
)

// The run loop under the monitor, configured as bench/'s
// vm_compute_tier configures it: WithTranslation(true), which no
// longer switches anything and must leave every count exactly as a
// plain run leaves it. The tests keep the option's name until the
// deprecated shim goes.

// trHotLoopSrc runs a 20000-iteration register loop, then stores the
// result where the test can read it back.
const trHotLoopSrc = `
start:	clrl r2
	movl #20000, r11
loop:	addl2 r11, r2
	sobgtr r11, loop
	movl r2, @#0x80006000
	halt
`

const trHotLoopResult = uint32(20000) * 20001 / 2

// TestWithTranslationMatchesBaseline runs the same guest with and
// without the option: the result, cycles, step count and every
// processor, MMU and VM counter must be identical.
func TestWithTranslationMatchesBaseline(t *testing.T) {
	run := func(opts ...Option) (*VMM, *VM, uint64) {
		k := New(16<<20, Config{}, opts...)
		vm := addTestVM(t, k, "", trHotLoopSrc, nil)
		steps := k.Run(50_000_000)
		if got := guestLong(t, vm, 0x6000); got != trHotLoopResult {
			t.Fatalf("result %#x, want %#x", got, trHotLoopResult)
		}
		return k, vm, steps
	}
	kOff, vmOff, stepsOff := run()
	kOn, vmOn, stepsOn := run(WithTranslation(true))
	if stepsOn != stepsOff || kOn.CPU.Cycles != kOff.CPU.Cycles {
		t.Errorf("steps %d/%d, cycles %d/%d", stepsOn, stepsOff, kOn.CPU.Cycles, kOff.CPU.Cycles)
	}
	if kOn.CPU.Stats != kOff.CPU.Stats || kOn.CPU.MMU.Stats != kOff.CPU.MMU.Stats || vmOn.Stats != vmOff.Stats {
		t.Errorf("counters diverge:\n %+v\n %+v\n %+v\n %+v",
			kOn.CPU.Stats, kOff.CPU.Stats, kOn.CPU.MMU.Stats, kOff.CPU.MMU.Stats)
	}
}

// TestWithTranslationParallelEngine runs a small fleet on the M:N
// engine: every guest must reach the right answer, with the merged
// instruction count equal to four serial runs'.
func TestWithTranslationParallelEngine(t *testing.T) {
	serial := New(16<<20, Config{})
	addTestVM(t, serial, "", trHotLoopSrc, nil)
	serial.Run(50_000_000)

	k := New(16<<20, Config{}, WithTranslation(true))
	var vms []*VM
	for i := 0; i < 4; i++ {
		vms = append(vms, addTestVM(t, k, "", trHotLoopSrc, nil))
	}
	k.RunParallel(4, 50_000_000)
	for i, vm := range vms {
		if halted, msg := vm.Halted(); !halted || !strings.Contains(msg, "HALT") {
			t.Fatalf("vm%d did not finish: %t %q", i, halted, msg)
		}
		if got := guestLong(t, vm, 0x6000); got != trHotLoopResult {
			t.Errorf("vm%d result %#x, want %#x", i, got, trHotLoopResult)
		}
	}
	pr := k.LastParallelRun()
	if pr.VMs != 4 {
		t.Fatalf("parallel run saw %d VMs, want 4", pr.VMs)
	}
	if want := 4 * serial.CPU.Stats.Instructions; pr.Instrs != want {
		t.Errorf("merged instructions %d, want %d", pr.Instrs, want)
	}
	if pr.MaxWorkerSteps == 0 || pr.MinWorkerSteps > pr.MaxWorkerSteps {
		t.Errorf("worker occupancy counters inconsistent: min=%d max=%d",
			pr.MinWorkerSteps, pr.MaxWorkerSteps)
	}
}

// TestWithTranslationSnapshotRestore snapshots a VM mid-loop and
// restores it into the same warm monitor, whose decode cache holds the
// loop's bound entries: the restore must drop them (the code pages
// just changed under them) and the revived VM must still finish with
// the right answer.
func TestWithTranslationSnapshotRestore(t *testing.T) {
	k := New(16<<20, Config{}, WithTranslation(true))
	vm := addTestVM(t, k, "", trHotLoopSrc, nil)
	k.Run(500)
	if k.CPU.Stats.DecodeHits == 0 {
		t.Fatal("warm-up never hit the decode cache")
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
	if got := guestLong(t, vm2, 0x6000); got != trHotLoopResult {
		t.Errorf("restored result %#x, want %#x", got, trHotLoopResult)
	}
}
