package exp

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vax"
)

// RecorderCap, when positive, attaches a flight recorder keeping that
// many events per VM to every VMM the harness builds through newVMM. It is
// set by the experiments binary's -trace flag or the VAX_TRACE
// environment variable; zero (the default) keeps every machine on the
// recorder-free hot path.
var RecorderCap = envRecorderCap()

func envRecorderCap() int {
	n, err := strconv.Atoi(os.Getenv("VAX_TRACE"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// experimentMem is the physical memory of every monitor the harness
// builds. The largest any experiment carves is about 341 KB (MiniOS
// VMs with their shadow tables), so 2 MB leaves room while keeping a
// pass's live heap small: monitors that are alive together, or not yet
// collected, each hold their whole buffer.
const experimentMem = 2 << 20

// newVMM is the single construction funnel for the harness's virtual
// machines. The experiments reproduce the paper's pure demand-fill
// design point (one shadow PTE per fault, Section 4.3.1), so FillBatch
// is pinned to 1 unless a caller overrides it; batched fill is a
// production-path optimization measured by the benchmarks, not by the
// paper's figures.
func newVMM(kcfg core.Config, opts ...core.Option) *core.VMM {
	if kcfg.FillBatch == 0 {
		kcfg.FillBatch = 1
	}
	if RecorderCap > 0 && kcfg.Recorder == nil {
		opts = append(opts, core.WithRecorder(trace.NewRecorder(RecorderCap)))
	}
	return core.New(experimentMem, kcfg, opts...)
}

// Micro-machines for the behaviour-matrix experiments (Tables 1-4):
// small bare machines with the SCB at physical 0 and code at 0x400, and
// small direct virtual machines with an identity-mapped guest.

type micro struct {
	c    *cpu.CPU
	m    *mem.Memory
	prog *asm.Program
}

func newMicro(variant cpu.Variant, src string, vectors map[vax.Vector]string) (*micro, error) {
	prog, err := asm.Assemble(src, 0x400)
	if err != nil {
		return nil, err
	}
	m := mem.New(256 * 1024)
	if err := m.StoreBytes(prog.Origin, prog.Code); err != nil {
		return nil, err
	}
	c := cpu.New(m, variant)
	c.SCBB = 0
	c.SetStackFor(vax.Kernel, 0x8000)
	c.SetStackFor(vax.Executive, 0x7000)
	c.SetStackFor(vax.Supervisor, 0x6000)
	c.SetStackFor(vax.User, 0x5000)
	c.ISP = 0x9000
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	start := prog.Origin
	if s, ok := prog.Symbol("start"); ok {
		start = s
	}
	c.SetPC(start)
	for vec, label := range vectors {
		addr := prog.MustSymbol(label)
		if addr&3 != 0 {
			return nil, fmt.Errorf("handler %s at %#x not longword aligned", label, addr)
		}
		if err := m.StoreLong(uint32(vec), addr); err != nil {
			return nil, err
		}
	}
	return &micro{c: c, m: m, prog: prog}, nil
}

func (mi *micro) run(maxSteps uint64) error {
	mi.c.Run(maxSteps)
	if !mi.c.Halted {
		return fmt.Errorf("micro machine did not halt (pc=%#x)", mi.c.PC())
	}
	return nil
}

// mapped builds a modified- or standard-VAX machine with mapping on: 32
// S pages identity-mapped to frames 16.. with the given per-page
// protections (default UW, premodified). Code is assembled at S base +
// 0 and loaded at frame 16.
type mappedMicro struct {
	c    *cpu.CPU
	m    *mem.Memory
	prog *asm.Program
}

const (
	mmSPT    = 0x1000
	mmFrame  = 16
	mmSPages = 32
)

func newMapped(variant cpu.Variant, src string, vectors map[vax.Vector]string,
	pteOverride map[uint32]vax.PTE) (*mappedMicro, error) {
	prog, err := asm.Assemble(src, vax.SystemBase)
	if err != nil {
		return nil, err
	}
	m := mem.New(256 * 1024)
	if err := m.StoreBytes(mmFrame*vax.PageSize, prog.Code); err != nil {
		return nil, err
	}
	c := cpu.New(m, variant)
	for i := uint32(0); i < mmSPages; i++ {
		pte := vax.NewPTE(true, vax.ProtUW, true, mmFrame+i)
		if o, ok := pteOverride[i]; ok {
			pte = o
		}
		if err := m.StoreLong(mmSPT+4*i, uint32(pte)); err != nil {
			return nil, err
		}
	}
	c.MMU.SBR = mmSPT
	c.MMU.SLR = mmSPages
	c.MMU.Enabled = true
	c.SCBB = 0 // physical page 0, below the mapped window
	c.SetStackFor(vax.Kernel, vax.SystemBase+16*vax.PageSize)
	c.SetStackFor(vax.Executive, vax.SystemBase+15*vax.PageSize)
	c.SetStackFor(vax.Supervisor, vax.SystemBase+14*vax.PageSize)
	c.SetStackFor(vax.User, vax.SystemBase+13*vax.PageSize)
	c.ISP = vax.SystemBase + 17*vax.PageSize
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	start := prog.Origin
	if s, ok := prog.Symbol("start"); ok {
		start = s
	}
	c.SetPC(start)
	for vec, label := range vectors {
		addr := prog.MustSymbol(label)
		// Handlers live in S space; the SCB holds their S addresses and
		// is itself read physically.
		if err := m.StoreLong(uint32(vec), addr); err != nil {
			return nil, err
		}
	}
	return &mappedMicro{c: c, m: m, prog: prog}, nil
}

func (mi *mappedMicro) run(maxSteps uint64) error {
	mi.c.Run(maxSteps)
	if !mi.c.Halted {
		return fmt.Errorf("mapped micro machine did not halt (pc=%#x)", mi.c.PC())
	}
	return nil
}

// tinyVM builds a VMM with one pre-mapped guest (SCB at VM-phys 0,
// identity SPT for 64 pages at 0x200, code at 0x1000), as in the core
// package's tests.
type tinyVM struct {
	k    *core.VMM
	vm   *core.VM
	prog *asm.Program
}

const (
	tgSPT    = 0x0200
	tgCode   = 0x1000
	tgSPTLen = 64
	tgMem    = 64 * 1024
)

func newTinyVM(kcfg core.Config, src string, vectors map[vax.Vector]string,
	pteOverride map[uint32]vax.PTE) (*tinyVM, error) {
	prog, err := asm.Assemble(src, vax.SystemBase+tgCode)
	if err != nil {
		return nil, err
	}
	img := make([]byte, tgMem)
	for i := uint32(0); i < tgSPTLen; i++ {
		pte := vax.NewPTE(true, vax.ProtUW, true, i)
		if o, ok := pteOverride[i]; ok {
			pte = o
		}
		binary.LittleEndian.PutUint32(img[tgSPT+4*i:], uint32(pte))
	}
	copy(img[tgCode:], prog.Code)
	for vec, label := range vectors {
		binary.LittleEndian.PutUint32(img[uint32(vec):], prog.MustSymbol(label))
	}
	k := newVMM(kcfg) // the tables observe per-fault fills, not batches
	vm, err := k.CreateVM(core.VMConfig{
		MemBytes: tgMem, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: tgSPT, SLR: tgSPTLen, SCBB: 0,
	})
	if err != nil {
		k.Release()
		return nil, err
	}
	vm.SPs[vax.Kernel] = vax.SystemBase + 0x8000
	vm.SPs[vax.Executive] = vax.SystemBase + 0x7800
	vm.SPs[vax.Supervisor] = vax.SystemBase + 0x7400
	vm.SPs[vax.User] = vax.SystemBase + 0x7000
	vm.ISP = vax.SystemBase + 0x8800
	return &tinyVM{k: k, vm: vm, prog: prog}, nil
}

func (tv *tinyVM) run(maxSteps uint64) error {
	tv.k.Run(maxSteps)
	h, msg := tv.vm.Halted()
	if !h {
		return fmt.Errorf("VM did not halt (pc=%#x)", tv.k.CPU.PC())
	}
	if msg != "HALT executed in VM kernel mode" {
		return fmt.Errorf("VM died: %s", msg)
	}
	return nil
}

// check renders a boolean observation.
func check(ok bool, desc string) string {
	mark := "✓"
	if !ok {
		mark = "✗"
	}
	return fmt.Sprintf("%s %s", mark, desc)
}
