package exp

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
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
// machines: it attaches a recorder when RecorderCap asks for one.
func newVMM(kcfg core.Config) *core.VMM {
	if RecorderCap > 0 {
		return core.New(experimentMem, kcfg, core.WithRecorder(trace.NewRecorder(RecorderCap)))
	}
	return core.New(experimentMem, kcfg)
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

// Pre-mapped guests, laid out as in the core package's tests: the SCB
// at VM-physical 0, an identity SPT for 64 pages at 0x200 and code at
// 0x1000, in 64 KB.
const (
	tgSPT    = 0x0200
	tgCode   = 0x1000
	tgSPTLen = 64
	tgMem    = 64 * 1024
)

// tinyImage assembles src into a pre-mapped guest image: the identity
// SPT (every page UW and premodified unless pteOverride replaces it),
// the code, and SCB vectors pointing at the named handlers.
func tinyImage(src string, vectors map[vax.Vector]string,
	pteOverride map[uint32]vax.PTE) ([]byte, *asm.Program, error) {
	prog, err := asm.Assemble(src, vax.SystemBase+tgCode)
	if err != nil {
		return nil, nil, err
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
	return img, prog, nil
}

// createTiny creates a VM on k from a tinyImage, starting at "start".
func createTiny(k *core.VMM, name string, img []byte, prog *asm.Program) (*core.VM, error) {
	return k.CreateVM(core.VMConfig{
		Name: name, MemBytes: tgMem, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: tgSPT, SLR: tgSPTLen, SCBB: 0,
	})
}

// tinyVM is a VMM with one pre-mapped guest.
type tinyVM struct {
	k    *core.VMM
	vm   *core.VM
	prog *asm.Program
}

func newTinyVM(kcfg core.Config, src string, vectors map[vax.Vector]string,
	pteOverride map[uint32]vax.PTE) (*tinyVM, error) {
	img, prog, err := tinyImage(src, vectors, pteOverride)
	if err != nil {
		return nil, err
	}
	k := newVMM(kcfg)
	vm, err := createTiny(k, "", img, prog)
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
	if msg != vmHaltNormal {
		return fmt.Errorf("VM died: %s", msg)
	}
	return nil
}

// guest is one VM of a campaign machine: a pre-mapped image of src
// with SCB vectors for the named handlers.
type guest struct {
	name    string
	src     string
	vectors map[vax.Vector]string
}

// runGuests builds a machine with kcfg, optionally armed with a fault
// plan, creates one VM per guest in order and runs it for up to
// maxSteps (E10 and E11).
func runGuests(kcfg core.Config, guests []guest, inj *fault.Injector, maxSteps uint64) (*core.VMM, []*core.VM, error) {
	k := newVMM(kcfg)
	if inj != nil {
		k.AttachFaults(inj)
	}
	var vms []*core.VM
	for _, g := range guests {
		img, prog, err := tinyImage(g.src, g.vectors, nil)
		var vm *core.VM
		if err == nil {
			vm, err = createTiny(k, g.name, img, prog)
		}
		if err != nil {
			k.Release()
			return nil, nil, fmt.Errorf("%s: %w", g.name, err)
		}
		vm.SPs[vax.Kernel] = vax.SystemBase + 0x8000
		vm.ISP = vax.SystemBase + 0x8800
		vms = append(vms, vm)
	}
	k.Run(maxSteps)
	return k, vms, nil
}

// check renders a boolean observation.
func check(ok bool, desc string) string {
	mark := "✓"
	if !ok {
		mark = "✗"
	}
	return fmt.Sprintf("%s %s", mark, desc)
}
