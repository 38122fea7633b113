package core

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// The supervisor: periodic checkpointing into a per-VM generation ring,
// and automatic recovery of VMs that die recoverably (watchdog trips,
// handler-less machine checks). The paper's VMM contains guest failures
// but never undoes them; this layer adds the rollback the
// high-assurance deployments it describes would need — a dead VM comes
// back at its last checkpoint instead of staying a hole in the fleet.
//
// The state machine per VM:
//
//	running ──death──▶ halted+pendingRecover ──safe point──▶ tryRecover
//	   ▲                                                        │
//	   │   restore newest-valid generation (ckptFallback back,  │
//	   └── stepping older per validation failure); progress ◀───┤
//	       resets the fallback                                  │
//	                                                            ▼
//	                  no valid generation, or RecoverBudget spent:
//	                  escalate — permanent halt, frames released
//
// Recovery is deliberately deferred: a death unwinds through the normal
// vm.halted guards first (a KCALL emulation path half-way through its
// unwind must not find a revived VM's registers under it), and the
// rollback happens at one of two safe points — the clock-tick handler
// or Run's halt loop, each at an instruction boundary with no VM
// mid-emulation. A worker of RunParallel runs Run on its shard, so it
// recovers its own share at the same two points.

// maybeCheckpoint takes the periodic checkpoint of the running VM when
// its policy interval has matured. Guarded by the progress mark: a VM
// that has made no progress event since its previous checkpoint gets no
// new generation (its newest would just snapshot the stall), except the
// very first, so even a guest that never progresses has one restore
// point.
func (k *VMM) maybeCheckpoint(vm *VM) {
	if vm == nil || vm.halted {
		return
	}
	if vm.ticks-vm.ckptLastTick < k.cfg.CheckpointEvery {
		return
	}
	if vm.ckptSeq > 0 && vm.progressSeq == vm.ckptMark {
		return
	}
	k.checkpointVM(vm)
}

// checkpointVM captures one generation of the VM into its ring,
// advancing the head. This is not a cold path: E11 checkpoints every 3
// ticks of a progressing VM, 2161 times a run. So a generation shares
// each unchanged page with the newest one (capture) and stays in
// memory; its stream is encoded only when a restore or a poisoning
// needs it, and its length, which the cycle charge needs, is computed.
func (k *VMM) checkpointVM(vm *VM) error {
	gens := k.cfg.CheckpointGenerations
	if gens <= 0 {
		gens = 1
	}
	start := k.CPU.Cycles
	g, err := k.capture(vm, vm.checkpointGen(0))
	n := 0
	if err == nil {
		n, err = g.encodedLen()
	}
	if err != nil {
		if vm.rec != nil {
			k.event(vm, trace.EvCheckpoint, uint32(vm.ckptSeq), "failed: "+err.Error())
		}
		return err
	}
	// The ring keeps the newest gens generations, so a policy change
	// deepens or shortens it here, at the VM's next checkpoint.
	if vm.ckptGens == nil {
		vm.ckptGens = make([]*generation, 0, gens)
	}
	if drop := len(vm.ckptGens) + 1 - gens; drop > 0 {
		vm.ckptGens = slices.Delete(vm.ckptGens, 0, drop)
	}
	vm.ckptGens = append(vm.ckptGens, g)
	vm.ckptSeq++
	vm.ckptLastTick = vm.ticks
	vm.ckptMark = vm.progressSeq
	vm.Stats.Checkpoints++
	// The serialization work is real VMM time: charge a cycle per 64
	// bytes of the stream, scaled like every other emulation path.
	k.charge(uint64(n) / 64)
	if vm.rec != nil {
		vm.rec.RecordDetail(trace.EvCheckpoint, start, k.guestPC(vm), uint32(vm.ckptSeq),
			fmt.Sprintf("%d bytes", n))
	}
	return nil
}

// checkpointGen returns the generation back steps behind the newest
// (0 = newest), or nil when the ring holds no such generation.
func (vm *VM) checkpointGen(back int) *generation {
	i := len(vm.ckptGens) - 1 - back
	if back < 0 || i < 0 {
		return nil
	}
	return vm.ckptGens[i]
}

// CheckpointGenerations reports how many restorable generations the
// VM's ring currently holds.
func (vm *VM) CheckpointGenerations() int { return len(vm.ckptGens) }

// recoverPending recovers every VM marked for deferred recovery,
// reporting whether at least one came back runnable. Safe-point only.
func (k *VMM) recoverPending() bool {
	any := false
	for _, vm := range k.vms {
		if vm != nil && vm.pendingRecover && k.tryRecover(vm) {
			any = true
		}
	}
	return any
}

// tryRecover rolls one dead VM back to its newest valid checkpoint
// generation, stepping older generations past validation failures, and
// escalates to a permanent halt when the budget or the ring runs out.
// Returns whether the VM is runnable again.
func (k *VMM) tryRecover(vm *VM) bool {
	vm.pendingRecover = false
	if !vm.halted {
		return true // already live (double-marked death); nothing to do
	}
	cause := vm.haltMsg
	start := k.CPU.Cycles
	// A zero budget means unlimited: the armed default is always set by
	// withDefaults, so zero only happens on operator-driven RecoverNow
	// against an unarmed machine.
	if b := k.cfg.RecoverBudget; b > 0 && int(vm.Stats.Recoveries) >= b {
		k.escalate(vm, fmt.Sprintf("recovery budget (%d) exhausted", b))
		return false
	}
	// The fault plan may poison the newest generation before the
	// supervisor reads it — the campaign's way of proving the CRC
	// rejection + generation-fallback path end to end. The flip lands
	// in the generation's own materialized stream, never in a blob that
	// other generations share.
	if k.faults != nil && k.faults.TakeCkptCorruption(vm.ID) {
		if g := vm.checkpointGen(0); g != nil {
			if img, err := g.stream(); err == nil {
				img[k.faults.Pick(len(img))] ^= byte(1 + k.faults.Pick(255))
				g.poisoned = img
				k.faults.NoteCkptCorruption()
				k.event(vm, trace.EvFaultInjected, 0, "newest checkpoint generation corrupted")
			}
		}
	}
	for {
		g := vm.checkpointGen(vm.ckptFallback)
		if g == nil {
			k.escalate(vm, "no valid checkpoint generation left")
			return false
		}
		img, err := g.stream()
		if err == nil {
			err = k.restoreInPlace(vm, img)
		}
		if err == nil {
			break
		}
		vm.Stats.RecoveryFallbacks++
		if vm.rec != nil {
			k.event(vm, trace.EvRecoveryFallback, uint32(vm.ckptFallback), err.Error())
		}
		vm.ckptFallback++
	}
	gen := vm.ckptFallback
	// The next death without intervening progress restores one
	// generation further back — the backoff that walks a stall whose
	// cause was checkpointed out of reach of the newest generation.
	vm.ckptFallback++
	k.unhalt(vm)
	vm.haltMsg = ""
	vm.haltCycles = 0
	vm.Stats.Recoveries++
	if vm.rec != nil {
		vm.rec.RecordDetail(trace.EvRecover, start, k.guestPC(vm), uint32(gen), "after "+cause)
		vm.rec.Observe(trace.LatRecover, k.CPU.Cycles-start)
	}
	return true
}

// escalate gives up on a VM: the halt becomes permanent and the shadow
// frames — kept across the recoverable halt — go back to the pool.
func (k *VMM) escalate(vm *VM, why string) {
	vm.Stats.RecoveryEscalations++
	k.event(vm, trace.EvRecoveryEscalated, 0, why)
	if vm.shadow != nil {
		vm.shadow.releaseRuns(k)
	}
}

// --- public control surface (vaxmon, harness) ---

// CheckpointNow takes an immediate checkpoint generation of the VM,
// outside any periodic policy.
func (k *VMM) CheckpointNow(vm *VM) error {
	return k.checkpointVM(vm)
}

// RecoverNow forces a recovery attempt on a halted VM, as if it had
// died recoverably. Returns an error when the VM is live or when
// recovery escalates.
func (k *VMM) RecoverNow(vm *VM) error {
	if !vm.halted {
		return fmt.Errorf("vmm: %s is not halted", vm.Name())
	}
	if vm.shadow != nil && vm.shadow.released {
		return fmt.Errorf("vmm: %s halted permanently (shadow frames released)", vm.Name())
	}
	vm.pendingRecover = true
	if !k.tryRecover(vm) {
		return fmt.Errorf("vmm: recovery of %s escalated: %s", vm.Name(), vm.haltMsg)
	}
	// Called between runs (the monitor path): the machine may have
	// halted with every VM dead, so make the revived VM schedulable
	// before the next Run.
	if k.CPU.Halted {
		k.CPU.ClearHalt()
	}
	if k.Current() == nil {
		k.scheduleNext()
	}
	return nil
}

// SetCheckpointPolicy sets (or, with every = 0, disables) periodic
// checkpointing at run time; generations = 0 keeps the ring depth. A
// policy Validate would refuse is refused, and the old one stays.
// Each VM's ring takes the new depth at its next checkpoint, keeping
// its newest generations.
func (k *VMM) SetCheckpointPolicy(every uint64, generations int) error {
	cfg := k.cfg
	cfg.CheckpointEvery = every
	if generations != 0 {
		cfg.CheckpointGenerations = generations
	} else if cfg.CheckpointGenerations == 0 {
		cfg.CheckpointGenerations = 4
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("vmm: checkpoint policy: %w", err)
	}
	k.cfg = cfg
	return nil
}

// SetRecovery arms or disarms the supervisor at run time.
func (k *VMM) SetRecovery(enabled bool, budget int) {
	k.cfg.Recover = enabled
	if budget > 0 {
		k.cfg.RecoverBudget = budget
	} else if enabled && k.cfg.RecoverBudget == 0 {
		k.cfg.RecoverBudget = 8
	}
}
