package cpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/vax"
)

// Differential tests for bound memory moves (execMem). Two identical
// machines record the same MOV-family instruction; one runs its entry's
// bound form, the other replays the entry through the generic handler.
// From identical states they must end in the same registers, PSL,
// cycles, memory, cpu.Stats (BoundHits aside), mmu.Stats and raised
// exception. Wherever the bound form must fall back, execMem must also
// leave every one of those untouched.

// Physical pages of the test machine; mapped, S page i maps frame i
// except where noted.
const (
	bmSPT    = 0x30000
	bmPages  = 256
	bmData   = 0x60 // plain, M set
	bmData2  = 0x61 // plain, M set
	bmTNV    = 0x62 // PTE<V> clear
	bmNA     = 0x63 // no access
	bmKR     = 0x64 // kernel read-only: no access from executive
	bmMClr   = 0x65 // PTE<M> clear
	bmNXM    = 0x66 // maps frame bmNXMPFN, past the end of memory
	bmDev    = 0x67 // holds the device window
	bmCold   = 0x68 // plain, never in the TLB before the measured step
	bmNXMPFN = 0x1000
	bmDevReg = bmDev*vax.PageSize + 0x100 // device window: 16 bytes
)

// regDevice is a memory-mapped register file that records every
// access.
type regDevice struct {
	regs [4]uint32
	log  []string
}

func (d *regDevice) Tick(*CPU, uint64)        {}
func (d *regDevice) Deadline() uint64         { return ^uint64(0) }
func (d *regDevice) Window() (uint32, uint32) { return bmDevReg, 16 }
func (d *regDevice) LoadReg(_ *CPU, off uint32) (uint32, error) {
	d.log = append(d.log, fmt.Sprintf("load %#x", off))
	return d.regs[off/4%4] >> (8 * (off % 4)), nil
}
func (d *regDevice) StoreReg(_ *CPU, off uint32, v uint32) error {
	d.log = append(d.log, fmt.Sprintf("store %#x=%#x", off, v))
	d.regs[off/4%4] = v
	return nil
}

// excLog records each exception the processor raises and halts it.
type excLog struct{ got []string }

func (s *excLog) HandleException(c *CPU, e *vax.Exception) bool {
	s.got = append(s.got, fmt.Sprintf("%#x/%d %x", e.Vector, e.Kind, e.Params))
	c.Halt(HaltInstruction)
	return true
}

// bmEnv is a machine configuration: mapping off, mapped on the standard
// VAX in kernel mode, or mapped in a VM on the modified VAX (real mode
// executive, where PTE<M> clear takes the modify fault).
type bmEnv struct {
	name       string
	mapped, vm bool
}

var bmEnvs = []bmEnv{{"unmapped", false, false}, {"mapped", true, false}, {"vm", true, true}}

// va returns the address of byte off of page: virtual when mapped,
// where the nonexistent-memory page has its own PTE; physical and past
// the end of memory for that page otherwise.
func (env bmEnv) va(page, off uint32) uint32 {
	if !env.mapped {
		if page == bmNXM {
			return bmNXMPFN*vax.PageSize + off
		}
		return page*vax.PageSize + off
	}
	return vax.SystemBase + page*vax.PageSize + off
}

func (env bmEnv) mode() vax.Mode {
	if env.vm {
		return vax.Executive
	}
	return vax.Kernel
}

type bmMachine struct {
	c    *CPU
	m    *mem.Memory
	prog *asm.Program
	sink *excLog
	dev  *regDevice
}

func newBMMachine(t *testing.T, env bmEnv, src string) *bmMachine {
	t.Helper()
	prog, err := asm.Assemble(src, env.va(0, testOrigin))
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	m := mem.New(256 * 1024)
	if err := m.StoreBytes(testOrigin, prog.Code); err != nil {
		t.Fatal(err)
	}
	for pa := uint32(bmData * vax.PageSize); pa < (bmCold+1)*vax.PageSize; pa += 4 {
		if err := m.StoreLong(pa, pa*0x9E3779B1); err != nil {
			t.Fatal(err)
		}
	}
	variant := StandardVAX
	if env.vm {
		variant = ModifiedVAX
	}
	c := New(m, variant)
	if env.mapped {
		for i := uint32(0); i < bmPages; i++ {
			pte := vax.NewPTE(true, vax.ProtUW, true, i)
			switch i {
			case bmTNV:
				pte = vax.NewPTE(false, vax.ProtUW, true, i)
			case bmNA:
				pte = vax.NewPTE(true, vax.ProtNA, true, i)
			case bmKR:
				pte = vax.NewPTE(true, vax.ProtKR, true, i)
			case bmMClr:
				pte = vax.NewPTE(true, vax.ProtUW, false, i)
			case bmNXM:
				pte = vax.NewPTE(true, vax.ProtUW, true, bmNXMPFN)
			}
			if err := m.StoreLong(bmSPT+4*i, uint32(pte)); err != nil {
				t.Fatal(err)
			}
		}
		c.MMU.SBR, c.MMU.SLR, c.MMU.Enabled = bmSPT, bmPages, true
	}
	c.SetStackFor(env.mode(), env.va(0, testKSP))
	psl := vax.PSL(0).WithCur(env.mode()).WithPrv(env.mode())
	if env.vm {
		psl = psl.WithVM(true)
		c.VMPSL = vax.PSL(0).WithCur(vax.Kernel).WithPrv(vax.Kernel)
	}
	c.SetPSL(psl)
	ma := &bmMachine{c: c, m: m, prog: prog, sink: &excLog{}, dev: &regDevice{}}
	c.Sink = ma.sink
	c.AddDevice(ma.dev)
	c.SetPC(prog.MustSymbol("start"))
	return ma
}

// bmState is everything a step may change.
type bmState struct {
	r      [16]uint32
	psl    vax.PSL
	cycles uint64
	cpu    Stats
	mmu    mmu.Stats
	halted bool
	exc    string
	dev    string
	mem    []byte
}

func (ma *bmMachine) state() bmState {
	b, _ := ma.m.Window(0, ma.m.Size())
	s := ma.c.Stats
	s.BoundHits = 0
	return bmState{ma.c.R, ma.c.psl, ma.c.Cycles, s, ma.c.MMU.Stats, ma.c.Halted,
		strings.Join(ma.sink.got, ";"), strings.Join(ma.dev.log, ";"), bytes.Clone(b)}
}

func (s bmState) diff(o bmState) string {
	var d []string
	if s.r != o.r {
		d = append(d, fmt.Sprintf("registers %x / %x", s.r, o.r))
	}
	if s.psl != o.psl || s.cycles != o.cycles || s.halted != o.halted {
		d = append(d, fmt.Sprintf("psl %s / %s, cycles %d / %d, halted %t / %t",
			s.psl, o.psl, s.cycles, o.cycles, s.halted, o.halted))
	}
	if s.cpu != o.cpu {
		d = append(d, fmt.Sprintf("cpu.Stats %+v / %+v", s.cpu, o.cpu))
	}
	if s.mmu != o.mmu {
		d = append(d, fmt.Sprintf("mmu.Stats %+v / %+v", s.mmu, o.mmu))
	}
	if s.exc != o.exc || s.dev != o.dev {
		d = append(d, fmt.Sprintf("exceptions %q / %q, device %q / %q", s.exc, o.exc, s.dev, o.dev))
	}
	if !bytes.Equal(s.mem, o.mem) {
		for i := range s.mem {
			if s.mem[i] != o.mem[i] {
				d = append(d, fmt.Sprintf("memory first differs at %#x: %#x / %#x", i, s.mem[i], o.mem[i]))
				break
			}
		}
	}
	return strings.Join(d, "\n ")
}

// bmAddr is an address as a page and an offset (see bmEnv.va).
type bmAddr struct {
	page int
	off  uint32
}

// bmCase is one shape in one situation. The instruction may use r1 and
// r3 as addresses (at and at3) and r2 as a value; ABS in src becomes
// the absolute address abs. warm pages are walked into the TLB before
// the measured step.
type bmCase struct {
	src        string
	at, at3    bmAddr
	abs        bmAddr
	warm       []uint32
	mappedOnly bool
	commit     bool
}

var (
	bmD    = bmAddr{bmData, 8}
	bmD2   = bmAddr{bmData2, 0x40}
	bmWarm = []uint32{bmData, bmData2}
)

// bmShapeCases are the bound shapes on plain, TLB-resident memory: each
// commits.
func bmShapeCases() []bmCase {
	var cs []bmCase
	for _, x := range []string{"b", "w", "l"} {
		for _, s := range []string{
			"mov%s r2, (r1)", "mov%s (r1), r2", "mov%s (r1)+, (r3)+", "mov%s r2, (r1)+",
			"mov%s @#ABS, r2", "mov%s r2, @#ABS", "mov%s #0x25, (r1)", "mov%s (r1), (r1)",
			"mov%s (r1)+, (r1)+", "mov%s r1, (r1)+", "mov%s (r1)+, r1", "mov%s @#ABS, (r3)+",
			"clr%s (r1)", "clr%s (r1)+", "clr%s @#ABS",
		} {
			cs = append(cs, bmCase{src: fmt.Sprintf(s, x), at: bmD, at3: bmD2, abs: bmAddr{bmData2, 0x31}, commit: true})
		}
	}
	for _, s := range []string{
		"movzbl (r1)+, r2", "movzbl @#ABS, r2", "movzbl (r1), (r3)+", "movzbl (r1)+, r1", "movzbl (r1)+, (r1)+",
		"movzwl (r1), r2", "movzwl (r1)+, (r3)", "movzwl @#ABS, (r1)", "movzwl (r1)+, r1",
		"movl r2, (sp)", "movl (sp)+, r2",
	} {
		cs = append(cs, bmCase{src: s, at: bmD, at3: bmD2, abs: bmAddr{bmData2, 0x1FE}, commit: true})
	}
	// An unaligned longword inside one page.
	cs = append(cs, bmCase{src: "movl (r1), (r3)", at: bmAddr{bmData, 0x1F9}, at3: bmAddr{bmData2, 3}, commit: true})
	return cs
}

// bmFallbackCases are the situations the bound form must refuse, each
// changing nothing before the generic handler runs.
func bmFallbackCases() []bmCase {
	return []bmCase{
		// TLB miss: the page was never translated.
		{src: "movl (r1), r2", at: bmAddr{bmCold, 4}, mappedOnly: true},
		{src: "movb r2, (r1)+", at: bmAddr{bmCold, 4}, mappedOnly: true},
		// TNV on the source, the destination, and the second operand
		// after the first probed fine (its autoincrement not applied).
		{src: "movl (r1), r2", at: bmAddr{bmTNV, 4}, mappedOnly: true},
		{src: "movw r2, (r1)+", at: bmAddr{bmTNV, 4}, mappedOnly: true},
		{src: "movl (r1)+, (r3)+", at: bmD, at3: bmAddr{bmTNV, 8}, mappedOnly: true},
		{src: "movl (r1)+, (r1)+", at: bmAddr{bmData2, 0x1FC}, mappedOnly: true},
		// ACV: no access, and a write to a kernel read-only page.
		{src: "movzbl (r1), r2", at: bmAddr{bmNA, 4}, warm: []uint32{bmNA}, mappedOnly: true},
		{src: "movl r2, (r1)", at: bmAddr{bmKR, 4}, warm: []uint32{bmKR}, mappedOnly: true},
		{src: "clrl @#ABS", abs: bmAddr{bmKR, 4}, warm: []uint32{bmKR}, mappedOnly: true},
		// PTE<M> clear, its PTE in the TLB: the standard VAX sets M in
		// hardware, a VM takes the modify fault.
		{src: "movl r2, (r1)", at: bmAddr{bmMClr, 4}, warm: []uint32{bmMClr}, mappedOnly: true},
		{src: "movb (r1)+, (r3)+", at: bmD, at3: bmAddr{bmMClr, 9}, warm: []uint32{bmMClr}, mappedOnly: true},
		// Device windows: inside, and a longword reaching into one.
		{src: "movl r2, (r1)", at: bmAddr{bmDev, 0x100}},
		{src: "movl (r1), r2", at: bmAddr{bmDev, 0x104}},
		{src: "movl r2, (r1)", at: bmAddr{bmDev, 0xFE}},
		{src: "movb @#ABS, r2", abs: bmAddr{bmDev, 0x10F}},
		// Page straddles: plain on both pages, and into a TNV page.
		{src: "movl (r1), r2", at: bmAddr{bmData, 0x1FE}},
		{src: "movw r2, (r1)+", at: bmAddr{bmData, 0x1FF}},
		{src: "movl r2, (r1)", at: bmAddr{bmData2, 0x1FD}, mappedOnly: true},
		// Nonexistent memory.
		{src: "movl (r1), r2", at: bmAddr{bmNXM, 8}, warm: []uint32{bmNXM}},
		{src: "movb r2, (r1)", at: bmAddr{bmNXM, 8}, warm: []uint32{bmNXM}},
	}
}

// runBMCase runs one case in one environment with r2 = v and the
// condition codes cc, and compares the bound and generic machines.
func runBMCase(t *testing.T, env bmEnv, tc bmCase, v, cc uint32) {
	t.Helper()
	src := "start:\t" + strings.ReplaceAll(tc.src, "ABS", fmt.Sprintf("%#x", env.va(uint32(tc.abs.page), tc.abs.off))) + "\n\thalt\n"
	bound, generic := newBMMachine(t, env, src), newBMMachine(t, env, src)
	start := bound.prog.MustSymbol("start")
	mode := env.mode()
	var ent *dcEntry
	for i, ma := range []*bmMachine{bound, generic} {
		c := ma.c
		// Record the entry with r1 and r3 on plain data. An absolute
		// operand may fault; the entry is recorded all the same, and a
		// fault in the VM clears PSL<VM>, which is put back.
		psl := c.psl
		c.R[1], c.R[3] = env.va(bmData, 0x80), env.va(bmData2, 0x80)
		c.Step()
		pa, ok := c.MMU.Lookup(start, mmu.Read, mode)
		e := &c.dc.entries[pa&(dcSlots-1)]
		if !ok || e.len == 0 || e.tag != pa || e.mtag != pa || e.bound.kind != fbMov {
			t.Fatalf("%s: entry not bound as a memory move (kind %d, mems %d)", tc.src, e.bound.kind, e.bound.mems)
		}
		if i == 0 {
			ent = e
		} else {
			e.mtag = noBTag(pa) // replay through the handler
		}
		// A read walk fills the TLB entry with every grant the PTE
		// gives, writes included when PTE<M> is set.
		for _, p := range append(tc.warm, bmWarm...) {
			c.MMU.Translate(env.va(p, 0), mmu.Read, mode)
		}
		c.ClearHalt()
		ma.sink.got, ma.dev.log = nil, nil
		c.SetPC(start)
		c.R[1] = env.va(uint32(tc.at.page), tc.at.off)
		c.R[2] = v
		c.R[3] = env.va(uint32(tc.at3.page), tc.at3.off)
		c.psl = psl&^vax.PSL(vax.PSLCC) | vax.PSL(cc)
	}
	if !tc.commit {
		before := bound.state()
		if _, ok := bound.c.execMem(&ent.bound, start); ok {
			t.Fatalf("%s: bound form committed where it must fall back", tc.src)
		}
		if d := before.diff(bound.state()); d != "" {
			t.Fatalf("%s: a refused bound form changed state:\n %s", tc.src, d)
		}
	}
	hits := bound.c.Stats.BoundHits
	bound.c.Step()
	generic.c.Step()
	if d := bound.state().diff(generic.state()); d != "" {
		t.Fatalf("%s (r2=%#x cc=%04b): bound / generic differ:\n %s", tc.src, v, cc, d)
	}
	want := uint64(0)
	if tc.commit {
		want = 1
	}
	if got := bound.c.Stats.BoundHits - hits; got != want {
		t.Fatalf("%s: %d bound hits, want %d", tc.src, got, want)
	}
}

// TestBoundMemMatchesGenericReplay runs every bound memory shape, and
// every situation the bound form must refuse, in each environment.
func TestBoundMemMatchesGenericReplay(t *testing.T) {
	for _, env := range bmEnvs {
		t.Run(env.name, func(t *testing.T) {
			for _, tc := range append(bmShapeCases(), bmFallbackCases()...) {
				if tc.mappedOnly && !env.mapped {
					continue
				}
				for _, v := range []uint32{0, 0x80, 0x7FFF, 0xFFFF8000, 0x12345678} {
					for _, cc := range []uint32{vax.PSLC, vax.PSLCC &^ vax.PSLC} {
						runBMCase(t, env, tc, v, cc)
					}
				}
			}
		})
	}
}

// TestBoundStoreOverCode stores with a bound move over the next
// instruction, and over the move's own bytes, inside one Run: the
// bound and generic machines must agree, and the overwritten code must
// run its new bytes.
func TestBoundStoreOverCode(t *testing.T) {
	// next's MOVL #5, R4 is D0 05 54: its literal is at next+1. The
	// patch sets it to 7.
	const overNext = `
start:	movb r2, (r1)
next:	movl #5, r4
	sobgtr r5, start
	halt
`
	// start's MOVB R2, (R1) is 90 52 61: its source specifier is at
	// start+1. The patch makes it R3, which holds the same byte.
	const overSelf = `
start:	movb r2, (r1)
	incl r4
	sobgtr r5, start
	halt
`
	for _, env := range bmEnvs[:2] {
		for _, tc := range []struct {
			name, src, label string
			r4               uint32
		}{
			{"next instruction", overNext, "next", 7},
			{"itself", overSelf, "start", 3},
		} {
			t.Run(env.name+"/"+tc.name, func(t *testing.T) {
				bound, generic := newBMMachine(t, env, tc.src), newBMMachine(t, env, tc.src)
				start := bound.prog.MustSymbol("start")
				for i, ma := range []*bmMachine{bound, generic} {
					c := ma.c
					// One warm pass stores to data and caches the loop.
					c.R[1], c.R[2], c.R[5] = env.va(bmData, 0), 0x53, 1
					c.Run(0)
					pa, _ := c.MMU.Lookup(start, mmu.Read, env.mode())
					e := &c.dc.entries[pa&(dcSlots-1)]
					if e.mtag != pa {
						t.Fatal("store not bound as a memory move")
					}
					if i == 1 {
						e.mtag = noBTag(pa)
					}
					c.ClearHalt()
					c.SetPC(start)
					c.R[1] = bound.prog.MustSymbol(tc.label) + 1
					c.R[2], c.R[3], c.R[4], c.R[5] = 7, 0x53, 0, 3
					if tc.label == "start" {
						c.R[2] = 0x53
					}
					c.Run(0)
				}
				if d := bound.state().diff(generic.state()); d != "" {
					t.Fatalf("bound / generic differ:\n %s", d)
				}
				if bound.c.R[4] != tc.r4 {
					t.Errorf("r4 = %d, want %d (stale decode ran)", bound.c.R[4], tc.r4)
				}
				if bound.c.Stats.DecodeInvalidations == 0 {
					t.Error("the store dropped no decode")
				}
			})
		}
	}
}
