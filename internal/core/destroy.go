package core

import (
	"fmt"
	"slices"

	"repro/internal/vax"
)

// DestroyVM unregisters a halted VM and recycles its physical pages,
// the missing half of the VM lifecycle: haltVM already parks shadow-
// table runs for reuse, but the VM's memory stayed carved forever. The
// fleet control plane churns through thousands of create/halt cycles,
// so destroyed memory goes back to the run pool. A frame map that is
// still one ascending run, with this VM the last holder of every frame,
// returns as one run of its full geometry (the next CreateVM of the
// same size reuses it); any other map returns frame by frame as the COW
// refcounts reach zero (the 1-page size class cowBreak allocates from).
//
// Call on the root monitor while no run is in flight. The VM must be
// halted first (HaltVM); a destroyed VM is gone from VMs() and its
// *VM handle must not be used again.
func (k *VMM) DestroyVM(vm *VM) error {
	if k.parent != nil {
		return fmt.Errorf("vmm: DestroyVM must be called on the root monitor")
	}
	if vm == nil || vm.k != k {
		return fmt.Errorf("vmm: destroy target belongs to another monitor")
	}
	if !vm.halted {
		return fmt.Errorf("vmm: cannot destroy a live VM (halt it first)")
	}
	idx := slices.Index(k.vms, vm)
	if idx < 0 {
		return fmt.Errorf("vmm: vm %d already destroyed", vm.ID)
	}
	// Shadow runs are normally released at the halt; a recoverable
	// death under an armed supervisor keeps them, so release here too
	// (idempotent).
	if vm.shadow != nil {
		vm.shadow.releaseRuns(k)
	}
	// Keep the frames this VM held last, in place. Each may carry cached
	// decodes that would go stale on reuse.
	refs := k.shared.refs
	last := vm.frames[:0]
	for _, f := range vm.frames {
		if refs == nil || refs.Drop(f) {
			last = append(last, f)
		}
	}
	if len(last) == len(vm.frames) && isRun(last) {
		k.CPU.InvalidateDecode(last[0]*vax.PageSize, vm.MemSize)
		k.freeRun(last[0], uint32(len(last)))
	} else {
		for _, f := range last {
			k.CPU.InvalidateDecode(f*vax.PageSize, vax.PageSize)
			k.freeRun(f, 1)
		}
	}
	vm.frames = nil
	k.vms = slices.Delete(k.vms, idx, idx+1)
	// Halted, the VM is off the live list, but the tick list keeps it
	// until the next tick.
	k.ticked = removeVM(k.ticked, vm)
	if k.cur == vm {
		k.cur = nil
	}
	// The VM's event log and histograms leave with it.
	if vm.rec != nil {
		k.rec.Drop(vm.ID)
		vm.rec = nil
	}
	return nil
}

// isRun reports whether frames ascend by one from frames[0].
func isRun(frames []uint32) bool {
	for i, f := range frames {
		if f != frames[0]+uint32(i) {
			return false
		}
	}
	return true
}

// VMByID returns the VM with the given ID, or nil. IDs are monotonic
// per monitor and never reused, so a stale ID after DestroyVM misses
// instead of aliasing a newer VM.
func (k *VMM) VMByID(id int) *VM {
	for _, vm := range k.vms {
		if vm.ID == id {
			return vm
		}
	}
	return nil
}
