package core

import (
	"fmt"

	"repro/internal/vax"
)

// DestroyVM unregisters a halted VM and recycles its physical pages,
// the missing half of the VM lifecycle: haltVM already parks shadow-
// table runs for reuse, but the VM's memory stayed carved forever. The
// fleet control plane churns through thousands of create/halt cycles,
// so destroyed memory goes back to the run pool — a contiguous VM as
// one run of its full geometry (the next CreateVM of the same size
// reuses it), a frames-backed VM page by page as the COW refcounts
// reach zero (the same 1-page size class cowBreak allocates from).
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
	idx := k.vmIndex(vm)
	if idx < 0 {
		return fmt.Errorf("vmm: vm %d already destroyed", vm.ID)
	}
	// Shadow runs are normally released at the halt; a recoverable
	// death under an armed supervisor keeps them, so release here too
	// (idempotent).
	if vm.shadow != nil {
		vm.shadow.releaseRuns(k)
	}
	if vm.frames != nil {
		refs := k.shared.refs
		for _, f := range vm.frames {
			if refs == nil || refs.Drop(f) {
				// Last holder: the frame may carry cached decodes (or
				// superblocks) that would go stale on reuse.
				k.CPU.InvalidateDecode(f*vax.PageSize, vax.PageSize)
				k.freeRun(f, 1)
			}
		}
		vm.frames = nil
	} else {
		k.CPU.InvalidateDecode(vm.MemBase, vm.MemSize)
		k.freeRun(vm.MemBase/vax.PageSize, vm.MemSize/vax.PageSize)
	}
	k.vms = append(k.vms[:idx], k.vms[idx+1:]...)
	switch {
	case k.cur == idx:
		k.cur = -1
	case k.cur > idx:
		k.cur--
	}
	// The VM's event log and histograms leave with it.
	if vm.rec != nil {
		k.rec.Drop(vm.ID)
		vm.rec = nil
	}
	return nil
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
