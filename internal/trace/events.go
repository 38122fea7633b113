package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// The flight recorder: one overwrite-oldest log per VM of typed,
// fixed-size events stamped with the machine cycle counter and the
// guest PC. The log is the VM's only event stream; the audit trail is
// a filtered view of it (Recorder.Audit). The goroutine executing the
// VM — the serial engine's single thread, or the VM's worker under the
// parallel engine — is the log's only writer, so Record takes no lock
// and never allocates, and a full log evicts its oldest event. Readers
// (the monitor's trace command, the exporters, the audit view) run
// only at safe points: after the parallel engine's merge barrier, or
// while the machine is not inside Run — the drive mutex that the REPL,
// /metrics and the fleet API share keeps them off a running machine.

// Kind classifies flight-recorder events.
type Kind uint8

const (
	EvVMTrap       Kind = iota // VM-emulation trap taken; arg = opcode
	EvCHM                      // change-mode emulated; arg = CHM code operand
	EvREI                      // REI emulated; arg = new guest PC
	EvShadowFill               // demand shadow-PTE fill; arg = faulting VA
	EvBatchFill                // batched neighbor fills; arg = PTEs filled
	EvModifyFault              // modify fault serviced; arg = faulting VA
	EvVirtualIRQ               // virtual interrupt delivered; arg = vector
	EvKCallStart               // KCALL entered; arg = function code
	EvKCallDone                // KCALL completed; arg = status
	EvKCallRetry               // transient disk error retried; arg = attempt
	EvSchedRun                 // VM resumed on the processor; arg = guest PC
	EvSchedPark                // VM gave up the processor (WAIT)
	EvWatchdogTrip             // watchdog halted the VM; arg = idle ticks
	EvMachineCheck             // virtual machine check delivered; arg = cause
	EvCheckpoint               // checkpoint generation taken; arg = sequence
	EvRecover                  // VM restored from a checkpoint; arg = generation
	EvCowBreak                 // copy-on-write break: shared page privatized; arg = VM page frame

	EvVMCreated         // VM created, cloned or restored
	EvVMHalted          // VM halted; detail = halt reason
	EvPrivFault         // privilege violation inside the VM, reflected to it
	EvReflected         // exception forwarded to the VMOS; arg = vector
	EvSelfCheckRepair   // shadow PTE repaired by the self-check pass; arg = VA
	EvFaultInjected     // fault injector applied a scheduled event
	EvUnknownKCALL      // KCALL with an unrecognized function code; arg = code
	EvRecoveryFallback  // a checkpoint generation failed validation; older one tried
	EvRecoveryEscalated // recovery abandoned: VM halted permanently

	NumKinds
)

var kindNames = [NumKinds]string{
	"vm-trap", "chm", "rei", "shadow-fill", "batch-fill", "modify-fault",
	"virtual-irq", "kcall-start", "kcall-done", "kcall-retry",
	"sched-run", "sched-park", "watchdog-trip", "machine-check",
	"checkpoint", "recover", "cow-break",
	"vm-created", "vm-halted", "priv-fault", "reflected",
	"selfcheck-repair", "fault-injected", "unknown-kcall",
	"recovery-fallback", "recovery-escalated",
}

// audited is the audit trail's kind set: what the security kernel's
// auditing facility (Seiden & Melanson, "The auditing facility for a
// VMM security kernel", 1990) records — VM lifecycle, entries into the
// VMM, faults and hardware errors, and recovery actions.
var audited = [NumKinds]bool{
	EvVMTrap: true, EvKCallRetry: true, EvSchedRun: true,
	EvWatchdogTrip: true, EvMachineCheck: true, EvCheckpoint: true,
	EvRecover: true, EvVMCreated: true, EvVMHalted: true,
	EvPrivFault: true, EvReflected: true, EvSelfCheckRepair: true,
	EvFaultInjected: true, EvUnknownKCALL: true,
	EvRecoveryFallback: true, EvRecoveryEscalated: true,
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Audited reports whether the audit view keeps events of this kind.
func (k Kind) Audited() bool { return k < NumKinds && audited[k] }

// Event is one flight-recorder record.
type Event struct {
	Cycle  uint64 // machine cycle counter at the event
	Detail string // free-form detail, set by cold events only
	Arg    uint32 // kind-specific detail (see the Kind constants)
	VM     int32  // VM ID
	PC     uint32 // guest PC at the event
	Kind   Kind
}

func (e Event) String() string {
	s := fmt.Sprintf("[%d] vm%d %s pc=%#x arg=%#x", e.Cycle, e.VM, e.Kind, e.PC, e.Arg)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Lat names the latency distributions the recorder maintains.
type Lat uint8

const (
	LatTrap       Lat = iota // VM-emulation trap service, entry to exit
	LatShadowFill            // one demand fill, including any batch
	LatKCall                 // KCALL entry to completion, retries included
	LatRecover               // supervisor recovery, death detection to resume-ready
	LatCowBreak              // one COW break, fault to private page mapped

	NumLat
)

var latNames = [NumLat]string{"trap", "shadow_fill", "kcall", "recover", "cow_break"}

func (l Lat) String() string {
	if l < NumLat {
		return latNames[l]
	}
	return fmt.Sprintf("lat(%d)", uint8(l))
}

// Recorder is the machine-wide flight recorder: one VMRecorder per
// live VM, created on the cold VM-creation path and released when the
// VM is destroyed. The zero Recorder is not usable; a nil *Recorder
// (the default everywhere) is the disabled state, and every hot-path
// hook guards on it with a single pointer test, so the disabled path
// costs one branch and zero allocations.
type Recorder struct {
	logCap int
	mu     sync.Mutex    // guards the vms table (cold: VM creation and destruction)
	vms    []*VMRecorder // ID order
}

// NewRecorder builds a recorder whose per-VM logs each retain the
// newest logCap events.
func NewRecorder(logCap int) *Recorder {
	if logCap < 1 {
		logCap = 1024
	}
	return &Recorder{logCap: logCap}
}

// find returns the table index of id, or where it would be inserted
// (mu held).
func (r *Recorder) find(id int) (int, bool) {
	return slices.BinarySearchFunc(r.vms, id, func(v *VMRecorder, id int) int {
		return cmp.Compare(v.ID, id)
	})
}

// VM returns (creating if needed) the per-VM recorder for id. Safe for
// concurrent callers; call once per VM at creation time and keep the
// pointer — the hot path must not come back through this lock.
func (r *Recorder) VM(id int, label string) *VMRecorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.find(id)
	if !ok {
		r.vms = slices.Insert(r.vms, i, &VMRecorder{
			ID:    id,
			Label: label,
			log:   NewLast[Event](r.logCap),
		})
	}
	return r.vms[i]
}

// Drop releases the recorder of a destroyed VM: its log and histograms
// leave with it, as its pages do.
func (r *Recorder) Drop(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.find(id); ok {
		r.vms = slices.Delete(r.vms, i, i+1)
	}
}

// VMs returns the per-VM recorders, ID order.
func (r *Recorder) VMs() []*VMRecorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.vms)
}

// Sync is a no-op kept for source compatibility: events land in their
// VM's log as they are recorded, so there is nothing to drain before
// reading.
func (r *Recorder) Sync() {}

// Dropped sums the events evicted from full logs across all VMs.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for _, v := range r.VMs() {
		n += v.Dropped()
	}
	return n
}

// Audit returns the audit trail: every VM's retained events of the
// audited kinds (Kind.Audited), ordered by cycle, then VM, then log
// order. It is a view over the logs, not a second record, so each VM's
// window bounds what it can show. Read at safe points only.
func (r *Recorder) Audit() []Event {
	var out []Event
	for _, v := range r.VMs() {
		for _, e := range v.log.Snapshot() {
			if e.Kind.Audited() {
				out = append(out, e)
			}
		}
	}
	slices.SortStableFunc(out, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.VM, b.VM))
	})
	return out
}

// VMRecorder records one VM's events and latencies. Record, RecordDetail
// and Observe belong to the goroutine executing the VM; everything else
// belongs to whoever holds the machine at a safe point.
type VMRecorder struct {
	ID    int
	Label string

	log  *Last[Event]
	hist [NumLat]Hist
}

// Record appends one event (never allocates).
func (v *VMRecorder) Record(kind Kind, cycle uint64, pc, arg uint32) {
	v.RecordDetail(kind, cycle, pc, arg, "")
}

// RecordDetail appends one event carrying a free-form detail. For cold
// events: callers format the detail only when the VM has a recorder.
func (v *VMRecorder) RecordDetail(kind Kind, cycle uint64, pc, arg uint32, detail string) {
	v.log.Append(Event{Cycle: cycle, Detail: detail, Arg: arg, VM: int32(v.ID), PC: pc, Kind: kind})
}

// Observe adds one latency sample in machine cycles (never allocates).
func (v *VMRecorder) Observe(l Lat, cycles uint64) {
	v.hist[l].Observe(cycles)
}

// Hist returns the named latency histogram. Read at safe points only.
func (v *VMRecorder) Hist(l Lat) *Hist { return &v.hist[l] }

// Dropped reports the events evicted from the full log: how far the
// retained window trails the VM's whole history.
func (v *VMRecorder) Dropped() uint64 { return v.log.Evicted() }

// Events returns the retained log, oldest first; with n > 0 only the
// most recent n events are returned.
func (v *VMRecorder) Events(n int) []Event {
	out := v.log.Snapshot()
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
