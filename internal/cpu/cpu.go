// Package cpu implements a cycle-accounted interpreter for the subset of
// the VAX architecture needed by the reproduction: the general registers,
// PSL, per-mode stack pointers, operand-specifier decoding, exception and
// interrupt dispatch through the SCB, and — selectable by Variant — the
// modified-architecture features of Sections 4 and 5 of the paper
// (PSL<VM>, VMPSL, the VM-emulation trap, the modify fault, PROBEVM and
// WAIT).
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/vax"
)

// Variant selects between the standard VAX architecture and the modified
// architecture of the paper.
type Variant int

const (
	// StandardVAX has no virtualization support: PSL<VM> is a reserved
	// bit, PTE<M> is set by hardware, and WAIT/PROBEVM are privileged-
	// instruction faults.
	StandardVAX Variant = iota
	// ModifiedVAX implements the Section 4 changes.
	ModifiedVAX
)

func (v Variant) String() string {
	if v == ModifiedVAX {
		return "modified VAX"
	}
	return "standard VAX"
}

// Register aliases.
const (
	RegAP = 12
	RegFP = 13
	RegSP = 14
	RegPC = 15
)

// ExceptionSink intercepts events that the hardware would dispatch
// through the real SCB. The VMM of internal/core registers itself here,
// exactly where the paper's VMM owns the real machine's kernel-mode
// vectors. Returning true consumes the event; returning false lets the
// hardware dispatch through the SCB as usual.
type ExceptionSink interface {
	HandleException(c *CPU, e *vax.Exception) bool
}

// Device is a hardware model that advances with the processor and may
// request interrupts or service IPR and memory-mapped register accesses.
type Device interface {
	// Tick advances the device by the cycles since its last tick. The
	// processor ticks after every step that may touch device state; a
	// run of bound instructions, which cannot, gets one Tick summing
	// their cycles, and the run ends at the instruction that reaches
	// Deadline.
	Tick(c *CPU, cycles uint64)
	// Deadline returns how many cycles may pass before the device's
	// next state change (an interrupt posting, a transfer completing).
	// Ticking a cycles, a below it, and then b more must leave the
	// device exactly as one Tick of a+b. ^uint64(0) means no change is
	// scheduled.
	Deadline() uint64
}

// IPRHandler lets a device claim internal processor registers.
type IPRHandler interface {
	ReadIPR(c *CPU, r vax.IPR) (uint32, bool)
	WriteIPR(c *CPU, r vax.IPR, v uint32) bool
}

// MMIOHandler lets a device claim a physical address window (the typical
// VAX I/O mechanism of Section 4.4.3: device registers in a reserved
// area of physical memory).
type MMIOHandler interface {
	// Window returns the physical base and length of the register file.
	Window() (base, size uint32)
	LoadReg(c *CPU, offset uint32) (uint32, error)
	StoreReg(c *CPU, offset uint32, v uint32) error
}

// Stats counts processor events for the experiment harness.
type Stats struct {
	Instructions uint64
	Exceptions   uint64
	Interrupts   uint64
	VMTraps      uint64 // VM-emulation traps taken
	PrivTraps    uint64 // privileged instruction faults
	CHMs         uint64
	REIs         uint64
	MOVPSLs      uint64
	Probes       uint64

	// Decoded-instruction cache counters (see dcache.go). BoundHits
	// are the decode hits run by their pre-bound form (bound.go).
	DecodeHits          uint64
	DecodeMisses        uint64
	DecodeInvalidations uint64
	BoundHits           uint64

	// Deprecated: the superblock tier is gone and these always read
	// 0. bench/ is their last reader.
	SBBuilds uint64
	// Deprecated: always 0, as SBBuilds.
	SBSteps uint64
}

// HaltReason explains why the processor stopped.
type HaltReason int

const (
	NotHalted HaltReason = iota
	HaltInstruction
	HaltDoubleError // exception while dispatching an exception
	HaltBusError    // machine check with no handler
)

// CPU is one simulated VAX processor.
type CPU struct {
	Mem *mem.Memory
	MMU *mmu.MMU

	R   [16]uint32
	psl vax.PSL

	// Per-mode stack pointer save area; the active mode's SP lives in
	// R[RegSP]. ISP is the interrupt stack pointer.
	spSave [vax.NumModes]uint32
	ISP    uint32
	onISP  bool

	// VMPSL holds the fields of the VM's PSL that differ from the real
	// machine's (current mode, previous mode, IPL) — modified VAX only
	// (Section 4.2).
	VMPSL vax.PSL

	// Internal processor registers kept in the CPU proper.
	SCBB   uint32
	PCBB   uint32
	SISR   uint32
	ASTLVL uint32
	SID    uint32

	Variant Variant

	Sink    ExceptionSink
	devices []Device
	iprs    []IPRHandler
	mmio    []MMIOHandler

	pendingIRQ [32]uint32 // vector per device IPL; 0 = none
	irqSummary uint32     // bit per IPL with a pending device interrupt
	waiting    bool       // inside a WAIT (bare modified machine never waits)

	// TrapAllInVM models Goldberg's first ring-mapping scheme (paper
	// Section 7.1): while the VM is in its most privileged mode, every
	// instruction traps to the VMM for emulation. The VMM grants a
	// one-instruction window with StepVMInstruction to "emulate" by
	// direct execution.
	TrapAllInVM     bool
	trapAllSkipOnce bool

	// ProbeWTrapOnDeny supports the read-only-shadow alternative to the
	// modify fault (paper Section 4.4.2): when the VMM encodes "not yet
	// modified" as a write-denying shadow protection, a PROBEW that the
	// shadow would fail cannot be trusted — microcode must trap to the
	// VMM, which consults the VM's own page table.
	ProbeWTrapOnDeny bool

	// modifyFaultOptIn enables the modify fault outside VM mode:
	// footnote 9 of the paper records that the fault "has since been
	// adopted into the base VAX architecture as an optional alternative
	// to hardware's setting PTE<M>". Operating systems opt in at boot.
	modifyFaultOptIn bool

	Cycles uint64
	Stats  Stats

	Halted bool
	Reason HaltReason

	// regSnapshot holds the register file at the start of the current
	// instruction so faults can restore operand side effects;
	// instStartPC is the address of the instruction being executed.
	regSnapshot [16]uint32
	instStartPC uint32

	// scratch backs the preallocated exceptions of the common fault
	// paths (see DESIGN.md, "Allocation-free fault path"): a scratch
	// *Exception is valid only until this CPU's next fault and must
	// never be retained across instructions.
	scratch vax.ExcScratch

	// vmScratch backs the VM-emulation traps the same way (see
	// vax.VMTrapScratch): the Exception/VMTrapInfo/operand package of a
	// sensitive-instruction trap is recycled per CPU instead of
	// allocated per trap. Valid only until this CPU's next VM trap.
	vmScratch vax.VMTrapScratch

	// dc is the decoded-instruction cache; cur is the record/replay
	// cursor of the instruction currently executing (dcache.go).
	dc  dcache
	cur cursor
}

// New creates a processor over the given memory with mapping disabled,
// in kernel mode on the interrupt stack at IPL 31, as after power-up.
func New(m *mem.Memory, variant Variant) *CPU {
	c := &CPU{
		Mem:     m,
		MMU:     mmu.New(m),
		Variant: variant,
	}
	c.MMU.ModifyFaultEnabled = func() bool {
		return (c.Variant == ModifiedVAX && c.psl.VM()) || c.modifyFaultOptIn
	}
	c.initDecodeCache()
	// The MMU's own PTE<M> write-back bypasses the CPU's store path.
	c.MMU.OnWrite = c
	c.psl = vax.PSL(0).WithCur(vax.Kernel).WithIPL(31)
	c.onISP = true
	c.psl = vax.PSL(uint32(c.psl) | vax.PSLIS)
	return c
}

// PSL returns the current processor status longword.
func (c *CPU) PSL() vax.PSL { return c.psl }

// SetPSL replaces the PSL wholesale, handling any stack switch implied
// by a change of current mode or interrupt-stack bit.
func (c *CPU) SetPSL(p vax.PSL) {
	c.switchStack(p.Cur(), p.IS())
	c.psl = p
}

// Mode returns the current access mode.
func (c *CPU) Mode() vax.Mode { return c.psl.Cur() }

// PC returns the program counter.
func (c *CPU) PC() uint32 { return c.R[RegPC] }

// SetPC sets the program counter.
func (c *CPU) SetPC(pc uint32) { c.R[RegPC] = pc }

// SP returns the active stack pointer.
func (c *CPU) SP() uint32 { return c.R[RegSP] }

// SetSP sets the active stack pointer.
func (c *CPU) SetSP(sp uint32) { c.R[RegSP] = sp }

// StackFor returns the saved stack pointer of the given mode (the live
// value if that mode is current).
func (c *CPU) StackFor(m vax.Mode) uint32 {
	if !c.onISP && c.psl.Cur() == m {
		return c.R[RegSP]
	}
	return c.spSave[m]
}

// SetStackFor stores a stack pointer for the given mode.
func (c *CPU) SetStackFor(m vax.Mode, sp uint32) {
	if !c.onISP && c.psl.Cur() == m {
		c.R[RegSP] = sp
		return
	}
	c.spSave[m] = sp
}

// switchStack saves the live SP and loads the one for (mode, is).
func (c *CPU) switchStack(newMode vax.Mode, toISP bool) {
	if c.onISP {
		c.ISP = c.R[RegSP]
	} else {
		c.spSave[c.psl.Cur()] = c.R[RegSP]
	}
	if toISP {
		c.R[RegSP] = c.ISP
	} else {
		c.R[RegSP] = c.spSave[newMode]
	}
	c.onISP = toISP
}

// AddDevice attaches a device, registering any IPR or MMIO interfaces it
// implements.
func (c *CPU) AddDevice(d Device) {
	c.devices = append(c.devices, d)
	if h, ok := d.(IPRHandler); ok {
		c.iprs = append(c.iprs, h)
	}
	if h, ok := d.(MMIOHandler); ok {
		c.mmio = append(c.mmio, h)
	}
}

// RequestInterrupt posts an interrupt at the given device IPL with the
// given SCB vector. It stays pending until delivered or cleared.
func (c *CPU) RequestInterrupt(ipl uint8, vec vax.Vector) {
	if ipl < 32 {
		c.pendingIRQ[ipl] = uint32(vec)
		c.irqSummary |= 1 << ipl
		c.waiting = false
	}
}

// ClearInterrupt withdraws a pending interrupt at the given IPL.
func (c *CPU) ClearInterrupt(ipl uint8) {
	if ipl < 32 {
		c.pendingIRQ[ipl] = 0
		c.irqSummary &^= 1 << ipl
	}
}

// PendingAbove returns the highest pending interrupt level above ipl,
// considering both device interrupts and software interrupt requests,
// or 0 if none. The per-level vectors are summarized into one bitmask
// (irqSummary; SISR already is one), so the poll every Step performs is
// a mask and a leading-zero count instead of a 31-level scan.
func (c *CPU) PendingAbove(ipl uint8) uint8 {
	m := c.irqSummary | c.SISR&sisrMask
	m &^= (uint32(2) << ipl) - 1 // keep bits strictly above ipl
	if m == 0 {
		return 0
	}
	return uint8(31 - bits.LeadingZeros32(m))
}

// sisrMask bounds software interrupt requests to levels 1..15.
const sisrMask = (uint32(1)<<(vax.IPLSoftwareMax+1) - 1) &^ 1

// AddCycles charges extra cycles to the machine (used by the VMM for its
// emulation-path costs; see costs.go).
func (c *CPU) AddCycles(n uint64) { c.Cycles += n }

// Halt stops the processor.
func (c *CPU) Halt(r HaltReason) {
	c.Halted = true
	c.Reason = r
}

// ClearHalt makes a halted processor runnable again (console restart).
func (c *CPU) ClearHalt() {
	c.Halted = false
	c.Reason = NotHalted
}

// InVMMode reports whether the processor is executing a virtual machine
// (modified VAX with PSL<VM> set).
func (c *CPU) InVMMode() bool {
	return c.Variant == ModifiedVAX && c.psl.VM()
}

// StepVMInstruction lets the next VM instruction execute directly even
// under TrapAllInVM — the trap-all VMM's stand-in for emulating the
// trapped instruction.
func (c *CPU) StepVMInstruction() { c.trapAllSkipOnce = true }

// EnableModifyFault opts the machine into the base-architecture modify
// fault (paper footnote 9): legal writes to pages with PTE<M> clear
// fault through the SCB instead of setting the bit in hardware. The
// operating system must then maintain PTE<M> itself.
func (c *CPU) EnableModifyFault(on bool) { c.modifyFaultOptIn = on }

// ModifyFaultOptIn reports whether the base-architecture modify fault
// option is enabled.
func (c *CPU) ModifyFaultOptIn() bool { return c.modifyFaultOptIn }

// EnableTranslation does nothing: the superblock tier it switched is
// gone, and Run executes bound instructions back to back on its own.
//
// Deprecated: bench/ is its last caller.
func (c *CPU) EnableTranslation(bool) {}

// GuestPSL composes the VM's full PSL from the real PSL and VMPSL, the
// merge MOVPSL performs in microcode (Section 4.2.1): mode, IPL and
// interrupt-stack fields come from VMPSL, everything else (condition
// codes, trap enables) from the real PSL, and PSL<VM> is never visible.
func (c *CPU) GuestPSL() vax.PSL {
	merged := c.psl.WithCur(c.VMPSL.Cur()).WithPrv(c.VMPSL.Prv()).WithIPL(c.VMPSL.IPL())
	m := uint32(merged) &^ vax.PSLIS
	if c.VMPSL.IS() {
		m |= vax.PSLIS
	}
	return vax.PSL(m).WithVM(false)
}

func (c *CPU) String() string {
	return fmt.Sprintf("CPU{pc=%#x %s cycles=%d}", c.PC(), c.psl, c.Cycles)
}
