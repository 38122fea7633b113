package core

import (
	"fmt"
	"sort"

	"repro/internal/trace"
	"repro/internal/vax"
)

// The audit facility. The paper's VMM was a security kernel whose
// auditing subsystem is described in the companion paper it cites
// (Seiden & Melanson, "The auditing facility for a VMM security
// kernel", 1990). This implementation records security-relevant VMM
// events — VM lifecycle, privilege transitions into the VMM, reflected
// faults and VM halts — in a bounded ring buffer. The rings themselves
// are the generic trace.Last (retain the most recent N, overwrite the
// oldest) and trace.SPSC (per-VM lock-free producer ring for parallel
// runs), shared with the flight recorder.

// AuditKind classifies audit events.
type AuditKind uint8

const (
	AuditVMCreated AuditKind = iota
	AuditVMHalted
	AuditVMTrap        // sensitive instruction emulated
	AuditPrivFault     // privilege violation inside a VM
	AuditReflected     // exception forwarded to a VMOS
	AuditWorldSwitch   // processor moved between VMs
	AuditNonexistentVM // reference to nonexistent VM-physical memory

	AuditMachineCheck    // virtual machine check delivered to a VM
	AuditDiskRetry       // transient disk error retried by the VMM
	AuditWatchdogTrip    // per-VM watchdog halted a VM
	AuditSelfCheckRepair // shadow PTE repaired by the self-check pass
	AuditFaultInjected   // fault injector applied a scheduled event
	AuditUnknownKCALL    // KCALL with an unrecognized function code

	AuditCheckpoint        // checkpoint generation taken
	AuditVMRecovered       // supervisor restored a VM from a checkpoint
	AuditRecoveryFallback  // a generation failed validation; older one tried
	AuditRecoveryEscalated // recovery abandoned: VM halted permanently

	AuditVMDestroyed // halted VM unregistered, pages recycled
)

func (k AuditKind) String() string {
	switch k {
	case AuditVMCreated:
		return "vm-created"
	case AuditVMHalted:
		return "vm-halted"
	case AuditVMTrap:
		return "vm-trap"
	case AuditPrivFault:
		return "priv-fault"
	case AuditReflected:
		return "reflected"
	case AuditWorldSwitch:
		return "world-switch"
	case AuditNonexistentVM:
		return "nonexistent-memory"
	case AuditMachineCheck:
		return "machine-check"
	case AuditDiskRetry:
		return "disk-retry"
	case AuditWatchdogTrip:
		return "watchdog-trip"
	case AuditSelfCheckRepair:
		return "selfcheck-repair"
	case AuditFaultInjected:
		return "fault-injected"
	case AuditUnknownKCALL:
		return "unknown-kcall"
	case AuditCheckpoint:
		return "checkpoint"
	case AuditVMRecovered:
		return "vm-recovered"
	case AuditRecoveryFallback:
		return "recovery-fallback"
	case AuditRecoveryEscalated:
		return "recovery-escalated"
	case AuditVMDestroyed:
		return "vm-destroyed"
	}
	return fmt.Sprintf("audit(%d)", uint8(k))
}

// AuditEvent is one recorded event.
type AuditEvent struct {
	// Seq is the global order. Root-recorded events get it at record
	// time (the root is single-threaded); events recorded on parallel
	// shards carry Seq 0 in their per-VM rings and are sequenced at the
	// merge, ordered by cycle stamp — no shard touches a shared counter
	// per event.
	Seq    uint64
	Cycle  uint64
	VM     int // VM ID, -1 for machine-level events
	Kind   AuditKind
	Detail string
	PC     uint32 // guest PC at the time of the event
}

func (e AuditEvent) String() string {
	return fmt.Sprintf("[%d] vm%d %s pc=%#x %s", e.Cycle, e.VM, e.Kind, e.PC, e.Detail)
}

// EnableAudit turns on auditing with a ring buffer of n events.
func (k *VMM) EnableAudit(n int) {
	if n <= 0 {
		n = 256
	}
	k.audit = trace.NewLast[AuditEvent](n)
}

// AuditTrail returns the recorded events, oldest first in global
// (sequence) order. It first drains every VM's parallel-run ring into
// the main log — shard events carry no sequence of their own, so the
// drain reconstructs the global order from their cycle stamps (VM ID
// breaking ties) and assigns sequence numbers where the root's serial
// counter left off. Call it from the root monitor while no parallel
// run is mutating the main log (the per-VM rings themselves tolerate a
// concurrent producer).
func (k *VMM) AuditTrail() []AuditEvent {
	if k.audit == nil {
		return nil
	}
	var drained []AuditEvent
	for _, vm := range k.vms {
		if vm.ring != nil {
			vm.ring.Drain(func(e AuditEvent) {
				drained = append(drained, e)
			})
		}
	}
	if len(drained) > 0 {
		sort.SliceStable(drained, func(i, j int) bool {
			if drained[i].Cycle != drained[j].Cycle {
				return drained[i].Cycle < drained[j].Cycle
			}
			return drained[i].VM < drained[j].VM
		})
		for i := range drained {
			k.auditNext++
			drained[i].Seq = k.auditNext
			k.audit.Append(drained[i])
		}
	}
	out := k.audit.Snapshot()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// AuditDropped reports how many events were dropped by full per-VM
// rings during parallel runs (audit loss is accounted, never silent).
func (k *VMM) AuditDropped() uint64 {
	var n uint64
	for _, vm := range k.vms {
		if vm.ring != nil {
			n += vm.ring.Dropped()
		}
	}
	return n
}

// record appends an event if auditing is enabled. On a parallel-run
// shard the event goes to the VM's own lock-free ring stamped with the
// shard's cycle count only (sequencing happens at the merge, so the
// per-event path shares nothing); the root logs directly into the
// shared ring (single-threaded by construction) and sequences as it
// goes. Callers that format a detail string check k.audit first, so a
// disabled trail costs no formatting.
func (k *VMM) record(vm *VM, kind AuditKind, detail string) {
	if k.audit == nil {
		return
	}
	id := -1
	if vm != nil {
		id = vm.ID
	}
	e := AuditEvent{Cycle: k.CPU.Cycles,
		VM: id, Kind: kind, Detail: detail, PC: k.CPU.PC()}
	if k.parent != nil {
		if vm != nil && vm.ring != nil {
			vm.ring.Push(e)
		}
		return
	}
	k.auditNext++
	e.Seq = k.auditNext
	k.audit.Append(e)
}

// auditVMTrap records a sensitive-instruction emulation.
func (k *VMM) auditVMTrap(vm *VM, info *vax.VMTrapInfo) {
	if k.audit == nil || info == nil {
		return
	}
	k.record(vm, AuditVMTrap, fmt.Sprintf("opcode %#x", info.Opcode))
}
