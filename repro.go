// Package repro is a reproduction of "Virtualizing the VAX
// Architecture" (Hall & Robinson, ISCA 1991): a simulated VAX with the
// paper's virtualization extensions, the ring-compression virtual
// machine monitor built on them, and a miniature guest operating system
// that runs unchanged on the standard VAX, on the modified VAX, and
// inside a virtual VAX.
//
// This package is the public face of the library: it re-exports the
// pieces a user composes —
//
//   - the assembler (Assemble) for writing guest code;
//   - bare machines (NewStandardVAX / NewModifiedVAX);
//   - the VMM (NewVMM, Config, VMConfig) and its virtual machines;
//   - MiniOS (BuildOS, BootBare, BootVM) and the workload library;
//   - the experiment harness (Experiments, ExperimentByID) that
//     regenerates every table and figure in the paper.
//
// See examples/ for runnable walk-throughs and DESIGN.md for the
// system inventory.
package repro

import (
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/vax"
	"repro/internal/vmos"
)

// Architecture definitions.
type (
	// Mode is a VAX access mode (protection ring): Kernel, Executive,
	// Supervisor or User.
	Mode = vax.Mode
	// PSL is a processor status longword.
	PSL = vax.PSL
	// PTE is a page table entry.
	PTE = vax.PTE
	// Protection is a 4-bit VAX page protection code.
	Protection = vax.Protection
	// Vector is an SCB vector offset.
	Vector = vax.Vector
)

// The four access modes, most privileged first.
const (
	Kernel     = vax.Kernel
	Executive  = vax.Executive
	Supervisor = vax.Supervisor
	User       = vax.User
)

// Machine building blocks.
type (
	// CPU is a simulated VAX processor.
	CPU = cpu.CPU
	// Memory is flat physical memory.
	Memory = mem.Memory
	// Variant selects the standard or modified (virtualizable) VAX.
	Variant = cpu.Variant
)

// Processor variants.
const (
	StandardVAX = cpu.StandardVAX
	ModifiedVAX = cpu.ModifiedVAX
)

// NewMemory creates size bytes of physical memory.
func NewMemory(size uint32) *Memory { return mem.New(size) }

// NewCPU creates a processor of the given variant over m.
func NewCPU(m *Memory, v Variant) *CPU { return cpu.New(m, v) }

// Program is an assembled VAX program.
type Program = asm.Program

// Assemble translates VAX assembly source, loading it at origin.
func Assemble(src string, origin uint32) (*Program, error) {
	return asm.Assemble(src, origin)
}

// The virtual machine monitor (the paper's primary contribution).
type (
	// VMM is the ring-compression virtual machine monitor.
	VMM = core.VMM
	// VM is one virtual VAX processor under a VMM.
	VM = core.VM
	// Config tunes the VMM. The zero value is the paper's design: ring
	// compression with shadow PTEs filled on demand, one per fault.
	Config = core.Config
	// VMConfig describes a virtual machine to create.
	VMConfig = core.VMConfig
	// RingScheme selects the ring virtualization strategy.
	RingScheme = core.RingScheme
)

// Ring virtualization schemes (Section 7.1 of the paper).
const (
	RingCompression      = core.RingCompression
	TrapAll              = core.TrapAll
	SeparateAddressSpace = core.SeparateAddressSpace
)

// NewVMM builds a VMM over a fresh modified-VAX machine with the given
// physical memory size.
func NewVMM(memBytes uint32, cfg Config) *VMM { return core.New(memBytes, cfg) }

// MiniOS, the guest operating system.
type (
	// OSConfig describes a MiniOS instance.
	OSConfig = vmos.Config
	// OSImage is a built MiniOS memory image.
	OSImage = vmos.Image
	// OSTarget selects the device drivers MiniOS links in.
	OSTarget = vmos.Target
	// Process is one MiniOS user program.
	Process = vmos.Process
	// Machine is a bare VAX booted with MiniOS.
	Machine = vmos.Machine
)

// MiniOS targets.
const (
	TargetBare   = vmos.TargetBare
	TargetVM     = vmos.TargetVM
	TargetVMMMIO = vmos.TargetVMMMIO
)

// BuildOS assembles a MiniOS image.
func BuildOS(cfg OSConfig) (*OSImage, error) { return vmos.Build(cfg) }

// BootBare loads a MiniOS image on a bare machine of the given variant.
func BootBare(im *OSImage, v Variant, diskBlocks int) (*Machine, error) {
	return vmos.BootBare(im, v, diskBlocks)
}

// BootVM creates a virtual machine under k running the MiniOS image.
func BootVM(k *VMM, im *OSImage, diskBlocks int) (*VM, error) {
	return vmos.BootVM(k, im, diskBlocks)
}

// Experiments and results.
type (
	// Experiment is one runnable table/figure/measurement reproduction.
	Experiment = exp.Spec
	// ExperimentResult is a regenerated table, figure or measurement.
	ExperimentResult = exp.Result
)

// Experiments returns every experiment in paper order.
func Experiments() []Experiment { return exp.All() }

// ExperimentByID looks an experiment up by its ID (T1-T4, F1-F3, E1-E7).
func ExperimentByID(id string) (Experiment, bool) { return exp.ByID(id) }
