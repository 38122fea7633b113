package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/vax"
)

// VMM hardening: virtual machine checks, the per-VM watchdog and the
// shadow-table self-check scrub, plus the hooks that let an attached
// fault.Injector exercise them. The paper's VMM hides device errors
// from the VMOS entirely (Section 5, "Hardware errors"); the recovery
// ladder here is the one it implies for errors that cannot be hidden:
// retry what is transient, report what is not as a virtual machine
// check through the VM's own SCB, and halt only the VM that stops
// making progress.

// Machine-check cause codes, passed as the second parameter longword of
// a virtual machine check (after the byte count).
const (
	MCheckDiskError uint32 = 1 // device error that survived the retry loop
	MCheckBusError  uint32 = 2 // bus error on a DMA range
)

// mcheckIPL is the guest IPL a virtual machine check is delivered at
// (the architectural machine-check IPL).
const mcheckIPL = 31

const (
	// maxDiskRetries bounds the KCALL retry loop: attempts 2..4 each
	// pay an exponentially growing backoff charge before giving up.
	maxDiskRetries = 4
	diskRetryCost  = 120
)

// AttachFaults arms (or, with nil, disarms) a fault-injection plan.
func (k *VMM) AttachFaults(inj *fault.Injector) { k.faults = inj }

// Faults returns the armed fault plan, or nil.
func (k *VMM) Faults() *fault.Injector { return k.faults }

// SetWatchdog sets the per-VM progress budget in ticks (0 disables).
func (k *VMM) SetWatchdog(ticks uint64) { k.cfg.Watchdog = ticks }

// noteProgress stamps a progress event — WAIT, CHM, completed I/O or a
// context switch — against the VM's own CPU time. Progress also resets
// the supervisor's generation fallback: a VM that recovers and then
// demonstrably moves forward has earned a fresh newest-generation
// restore at its next death.
func (k *VMM) noteProgress(vm *VM) {
	vm.lastProgress = vm.ticks
	vm.progressSeq++
	vm.ckptFallback = 0
}

// machineCheck delivers a virtual machine check to the current VM: the
// parameter longwords are {byte count, cause code, cause info}, so the
// guest handler can pop the count and discard the parameters the way a
// real machine-check handler does.
func (k *VMM) machineCheck(vm *VM, code, info uint32) {
	vm.Stats.MachineChecks++
	if vm.rec != nil {
		k.event(vm, trace.EvMachineCheck, code, fmt.Sprintf("code %d info %#x", code, info))
	}
	k.deliverToVM(vm, vax.VecMachineCheck, []uint32{8, code, info},
		k.CPU.PC(), vax.Kernel, mcheckIPL)
}

// checkWatchdog halts the current VM when it has run Watchdog ticks of
// its own CPU time without a progress event, and reports whether it
// tripped — in which case haltVM has already scheduled a neighbor and
// the caller must not reschedule.
func (k *VMM) checkWatchdog(vm *VM) bool {
	if k.cfg.Watchdog == 0 || vm == nil || vm.halted || vm.waiting {
		return false
	}
	idle := vm.ticks - vm.lastProgress
	if idle <= k.cfg.Watchdog {
		return false
	}
	vm.Stats.WatchdogTrips++
	k.event(vm, trace.EvWatchdogTrip, uint32(idle), "")
	k.haltVMCause(vm, fmt.Sprintf("watchdog: no progress event in %d ticks", idle),
		haltWatchdog)
	return true
}

// injectTick applies the scheduled tick-granularity faults: shadow-PTE
// corruption events, each immediately followed by a self-check pass on
// the corrupted VM (the plan models zero detection latency, so the
// guest never runs on a corrupted translation).
func (k *VMM) injectTick() {
	tick := k.Stats.ClockTicks
	for vm := k.nextLive(-1); vm != nil; vm = k.nextLive(vm.ID) {
		for k.faults.TakeCorruption(vm.ID, tick) {
			k.corruptShadowPTE(vm)
			k.selfCheckVM(vm)
		}
	}
}

// corruptShadowPTE flips the frame number of one live shadow S-space
// PTE of the VM — the injected divergence the self-check repairs. Only
// the S shadow's span can hold a live entry, so only the span is read:
// the live entries are counted first, then the picked one is found. A
// clone that has not run yet has no shadow tables, so nothing to
// corrupt, and draws no pick.
func (k *VMM) corruptShadowPTE(vm *VM) {
	s := vm.shadow
	if s == nil {
		return
	}
	win := s.spt.span(k)
	valid := func(off int) bool { return vax.PTE(binary.LittleEndian.Uint32(win[off:])).Valid() }
	live := 0
	for off := 0; off < len(win); off += 4 {
		if valid(off) {
			live++
		}
	}
	if live == 0 {
		return
	}
	off := 0
	for n := k.faults.Pick(live); ; off += 4 {
		if valid(off) {
			if n == 0 {
				break
			}
			n--
		}
	}
	pte := vax.PTE(binary.LittleEndian.Uint32(win[off:]))
	badPFN := (pte.PFN() ^ uint32(1+k.faults.Pick(7))) % k.Mem.Pages()
	if badPFN == pte.PFN() {
		badPFN = (badPFN + 1) % k.Mem.Pages()
	}
	va := vax.SystemBase + (s.spt.lo+uint32(off/4))*vax.PageSize
	s.install(k, va, vax.NewPTE(true, pte.Prot(), pte.Modified(), badPFN))
	k.CPU.MMU.TBIS(va)
	k.faults.NoteCorruption()
	if vm.rec != nil {
		k.event(vm, trace.EvFaultInjected, va, fmt.Sprintf("shadow PTE for %#x repointed to frame %#x", va, badPFN))
	}
}

// SelfCheck runs one shadow-table self-check pass over every live VM
// and returns the number of repaired PTEs.
func (k *VMM) SelfCheck() int {
	repairs := 0
	for vm := k.nextLive(-1); vm != nil; vm = k.nextLive(vm.ID) {
		repairs += k.selfCheckVM(vm)
	}
	return repairs
}

// selfCheckVM revalidates every valid shadow PTE of one VM against the
// VM's own page tables. A shadow entry that no longer matches what the
// demand fill would compute is cleared to the null PTE — the next
// reference refills it from the guest's tables — and audited. A clone
// that has not run yet has no shadow tables to check.
func (k *VMM) selfCheckVM(vm *VM) int {
	if vm.halted || !vm.mapen || vm.shadow == nil {
		return 0
	}
	s := vm.shadow
	repairs := 0
	scanned := uint32(0)
	scan := func(base, count uint32, vaOf func(vpn uint32) uint32) {
		for vpn := uint32(0); vpn < count && !vm.halted; vpn++ {
			scanned++
			v, err := k.Mem.LoadLong(base + 4*vpn)
			if err != nil || !vax.PTE(v).Valid() {
				continue // null and invalid entries refill on demand
			}
			va := vaOf(vpn)
			if want, ok := k.expectedShadow(vm, va); ok && want == vax.PTE(v) {
				continue
			}
			if vm.halted {
				return
			}
			_ = k.Mem.StoreLong(base+4*vpn, uint32(nullPTE))
			k.CPU.MMU.TBIS(va)
			repairs++
			vm.Stats.SelfCheckRepairs++
			if vm.rec != nil {
				k.event(vm, trace.EvSelfCheckRepair, va, fmt.Sprintf("shadow PTE %#x for %#x cleared", v, va))
			}
		}
	}
	scan(s.spt.phys, VMSLimitPTEs, func(vpn uint32) uint32 {
		return vax.SystemBase + vpn*vax.PageSize
	})
	scan(s.slots[s.active].phys, ProcTablePTEs, func(vpn uint32) uint32 {
		return vpn * vax.PageSize
	})
	scan(s.p1.phys, P1TablePTEs, func(vpn uint32) uint32 {
		return vax.P1Base + vpn*vax.PageSize
	})
	k.charge(uint64(scanned) / 16) // the scrub is VMM work, not free
	return repairs
}

// expectedShadow recomputes, through the shadow-PTE rule, the shadow
// PTE the demand fill would install for va right now, or ok=false when
// the guest's tables no longer justify any valid shadow entry there.
func (k *VMM) expectedShadow(vm *VM, va uint32) (vax.PTE, bool) {
	gpte, gf := k.guestPTE(vm, va, false)
	if gf != nil || vm.halted {
		return 0, false
	}
	spte, m := k.shadowPTEFor(vm, gpte, k.cfg.ReadOnlyShadow)
	return spte, m == mapped
}
