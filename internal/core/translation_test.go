package core

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// End-to-end coverage of the hot-trace translation tier behind
// WithTranslation: same-answer parity against the plain interpreter,
// operation on the parallel engine, invalidation across
// snapshot/restore, and the EvTraceCompile feed into the recorder.

// trHotLoopSrc runs a 20000-iteration register loop (hot enough to
// cross the superblock heat threshold many times over), then stores
// the result where the test can read it back.
const trHotLoopSrc = `
start:	clrl r2
	movl #20000, r11
loop:	addl2 r11, r2
	sobgtr r11, loop
	movl r2, @#0x80006000
	halt
`

const trHotLoopResult = uint32(20000) * 20001 / 2

// TestWithTranslationMatchesBaseline runs the same guest tier-on and
// tier-off to completion: the architectural outcome (guest memory,
// retired instructions, cycle count) must be identical, and the
// tier-on run must actually have executed out of superblocks.
func TestWithTranslationMatchesBaseline(t *testing.T) {
	run := func(translate bool) (*VMM, *VM) {
		k, vm, _ := bootVM(t, Config{Translation: translate}, trHotLoopSrc, nil)
		runVM(t, k, vm, 50_000_000)
		if got := guestLong(t, vm, 0x6000); got != trHotLoopResult {
			t.Fatalf("translate=%t: result %#x, want %#x", translate, got, trHotLoopResult)
		}
		return k, vm
	}
	kOff, _ := run(false)
	kOn, _ := run(true)

	if kOn.CPU.Stats.Instructions != kOff.CPU.Stats.Instructions {
		t.Errorf("instructions diverge: tier-on %d, tier-off %d",
			kOn.CPU.Stats.Instructions, kOff.CPU.Stats.Instructions)
	}
	if kOn.CPU.Cycles != kOff.CPU.Cycles {
		t.Errorf("cycles diverge: tier-on %d, tier-off %d",
			kOn.CPU.Cycles, kOff.CPU.Cycles)
	}
	if kOn.CPU.Stats.SBEnters == 0 {
		t.Error("tier-on run never entered a superblock")
	}
	if kOff.CPU.Stats.SBBuilds != 0 {
		t.Error("tier-off run built superblocks")
	}
}

// TestWithTranslationParallelEngine runs a small fleet on the M:N
// engine with the tier enabled on every worker shard: all guests must
// reach the right answer and the merged run stats must show superblock
// activity.
func TestWithTranslationParallelEngine(t *testing.T) {
	k := New(16<<20, Config{Translation: true})
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
	if pr.SBBuilds == 0 || pr.SBEnters == 0 || pr.SBSteps == 0 {
		t.Errorf("merged stats show no superblock activity: builds=%d enters=%d steps=%d",
			pr.SBBuilds, pr.SBEnters, pr.SBSteps)
	}
	if pr.MaxWorkerSteps == 0 || pr.MinWorkerSteps > pr.MaxWorkerSteps {
		t.Errorf("worker occupancy counters inconsistent: min=%d max=%d",
			pr.MinWorkerSteps, pr.MaxWorkerSteps)
	}
}

// TestWithTranslationSnapshotRestore snapshots a tier-on VM
// mid-computation and restores it into the same warm monitor: the
// restore must invalidate the installed superblocks (the code pages
// just changed under them) and the revived VM must still finish with
// the right answer.
func TestWithTranslationSnapshotRestore(t *testing.T) {
	k, vm, _ := bootVM(t, Config{Translation: true}, trHotLoopSrc, nil)
	// A tier-on step can retire a whole superblock, so 500 steps is
	// already deep inside the loop with blocks installed and hot.
	k.Run(500)
	if k.CPU.Stats.SBEnters == 0 {
		t.Fatal("warm-up never entered a superblock")
	}
	snap, err := k.Snapshot(vm)
	if err != nil {
		t.Fatal(err)
	}
	invBefore := k.CPU.Stats.SBInvalidations
	vm2, err := k.Restore("revived", snap)
	if err != nil {
		t.Fatal(err)
	}
	if k.CPU.Stats.SBInvalidations == invBefore {
		t.Error("restore into a warm monitor invalidated no superblocks")
	}
	k.Run(50_000_000)
	if h, msg := vm2.Halted(); !h || !strings.Contains(msg, "HALT") {
		t.Fatalf("restored VM did not finish: %t %q", h, msg)
	}
	if got := guestLong(t, vm2, 0x6000); got != trHotLoopResult {
		t.Errorf("restored result %#x, want %#x", got, trHotLoopResult)
	}
}

// TestWithTranslationTraceCompileEvents checks that superblock
// installs reach an attached flight recorder as EvTraceCompile events.
func TestWithTranslationTraceCompileEvents(t *testing.T) {
	rec := trace.NewRecorder(1 << 12)
	k, vm, _ := bootVM(t, Config{Translation: true, Recorder: rec}, trHotLoopSrc, nil)
	runVM(t, k, vm, 50_000_000)
	compiles := 0
	for _, v := range rec.VMs() {
		for _, ev := range v.Events(0) {
			if ev.Kind == trace.EvTraceCompile {
				compiles++
			}
		}
	}
	if compiles == 0 {
		t.Error("no EvTraceCompile events recorded")
	}
	if got := uint64(compiles); got != k.CPU.Stats.SBBuilds {
		t.Errorf("recorded %d trace-compile events, CPU built %d superblocks",
			compiles, k.CPU.Stats.SBBuilds)
	}
}
