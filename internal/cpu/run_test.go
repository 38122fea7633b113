package cpu

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/vax"
)

// Differential tests for the run loop (exception.go). Each scenario
// builds two identical machines and drives one with Run(budget) and
// the other one Step() at a time. After every phase they must agree on
// the registers, the PSL, Cycles, the step count, every cpu.Stats and
// mmu.Stats field, the instruction count at each interrupt delivery and
// the state of an attached device. The scenarios are the decode-cache
// coherence cases the run loop must preserve: self-modifying code,
// stores beside cached code, TBIS/TBIA remaps under a straddling
// instruction, DMA, the wholesale flush a snapshot restore performs,
// interrupts posted mid-loop, and runs of bound memory moves.

// periodDevice posts an interrupt at the end of every period (none
// when vec is 0), taking its periods in turn from a fixed list. Its
// Tick is additive, so its deadline is the cycles left in the current
// period. ticks counts calls; everything else must match between a
// Run-driven and a Step-driven machine.
type periodDevice struct {
	periods       []uint64
	next          int // index of the period after the current one
	left          uint64
	ipl           uint8
	vec           vax.Vector
	cycles, posts uint64
	ticks         uint64
}

func newPeriodDevice(ipl uint8, vec vax.Vector, periods ...uint64) *periodDevice {
	return &periodDevice{periods: periods, next: 1 % len(periods), left: periods[0], ipl: ipl, vec: vec}
}

func (d *periodDevice) Deadline() uint64 { return d.left }

func (d *periodDevice) Tick(c *CPU, n uint64) {
	d.ticks++
	d.cycles += n
	for n >= d.left {
		n -= d.left
		d.left = d.periods[d.next]
		d.next = (d.next + 1) % len(d.periods)
		d.posts++
		if d.vec != 0 {
			c.RequestInterrupt(d.ipl, d.vec)
		}
	}
	d.left -= n
}

// irqPeriods vary so that deadlines fall at every position in the
// loops below, including on their first instruction: a single period
// would settle into one alignment after the first interrupt.
var irqPeriods = []uint64{97, 13, 50, 2, 41, 29, 64, 3, 88, 19, 4, 71}

// irqSink records the instruction count at each interrupt delivery and
// lets the hardware dispatch it through the SCB.
type irqSink struct{ at []uint64 }

func (s *irqSink) HandleException(c *CPU, e *vax.Exception) bool {
	if e.Kind == vax.Interrupt {
		s.at = append(s.at, c.Stats.Instructions)
	}
	return false
}

// runMachine is one side of a differential pair.
type runMachine struct {
	c      *CPU
	m      *mem.Memory
	prog   *asm.Program // nil for hand-assembled code
	start  uint32
	dev    *periodDevice
	sink   *irqSink
	budget uint64 // the budget drive last ran with
}

// sym returns a label's virtual address.
func (rm *runMachine) sym(name string) uint32 { return rm.prog.MustSymbol(name) }

// phys returns the physical address backing virtual address va: both
// layouts below load code so that the low 30 bits of its VA are its PA.
func phys(va uint32) uint32 { return va &^ vax.SystemBase }

const (
	runSPT    = 0x30000 // physical SPT of the mapped layout
	runSPages = 256     // S pages 0..255 map to frames 0..255
)

// newRunMachine assembles src at testOrigin, physically. Mapped, it
// assembles at S base + testOrigin instead and maps S page i to frame
// i, so code, data and stacks sit at the same physical addresses in
// both layouts; the SCB stays physical at 0.
func newRunMachine(t *testing.T, src string, mapped bool, vectors map[vax.Vector]string) *runMachine {
	t.Helper()
	base := uint32(0)
	if mapped {
		base = vax.SystemBase
	}
	prog, err := asm.Assemble(src, base+testOrigin)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New(256 * 1024)
	if err := m.StoreBytes(testOrigin, prog.Code); err != nil {
		t.Fatal(err)
	}
	c := New(m, StandardVAX)
	if mapped {
		for i := uint32(0); i < runSPages; i++ {
			pte := vax.NewPTE(true, vax.ProtUW, true, i)
			if err := m.StoreLong(runSPT+4*i, uint32(pte)); err != nil {
				t.Fatal(err)
			}
		}
		c.MMU.SBR = runSPT
		c.MMU.SLR = runSPages
		c.MMU.Enabled = true
	}
	c.SCBB = 0
	c.SetStackFor(vax.Kernel, base+testKSP)
	c.ISP = base + testISP
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	for vec, label := range vectors {
		if err := m.StoreLong(uint32(vec), prog.MustSymbol(label)); err != nil {
			t.Fatal(err)
		}
	}
	rm := &runMachine{c: c, m: m, prog: prog, start: prog.MustSymbol("start"), sink: &irqSink{}}
	c.Sink = rm.sink
	c.SetPC(rm.start)
	return rm
}

// drive runs the machine to HALT: one Step() at a time when budget is
// stepOnly, otherwise by Run(budget) calls (0: a single unlimited one).
// It returns the steps taken.
func (rm *runMachine) drive(t *testing.T, budget uint64) uint64 {
	t.Helper()
	const limit = 1_000_000
	rm.budget = budget
	var steps uint64
	for !rm.c.Halted && steps < limit {
		if budget == stepOnly {
			rm.c.Step()
			steps++
		} else {
			steps += rm.c.Run(budget)
		}
	}
	if !rm.c.Halted {
		t.Fatalf("did not halt in %d steps; pc=%#x", limit, rm.c.PC())
	}
	return steps
}

const stepOnly = ^uint64(0)

// diffRun compares a Run-driven machine against a Step-driven one.
func diffRun(t *testing.T, run, step *runMachine, runSteps, stepSteps uint64) {
	t.Helper()
	a, b := run.c, step.c
	if runSteps != stepSteps {
		t.Errorf("steps: Run %d, Step %d", runSteps, stepSteps)
	}
	if a.R != b.R {
		t.Errorf("registers:\n Run  %x\n Step %x", a.R, b.R)
	}
	if a.PSL() != b.PSL() {
		t.Errorf("PSL: Run %s, Step %s", a.PSL(), b.PSL())
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycles: Run %d, Step %d", a.Cycles, b.Cycles)
	}
	if a.Stats != b.Stats {
		t.Errorf("cpu.Stats:\n Run  %+v\n Step %+v", a.Stats, b.Stats)
	}
	if a.MMU.Stats != b.MMU.Stats {
		t.Errorf("mmu.Stats:\n Run  %+v\n Step %+v", a.MMU.Stats, b.MMU.Stats)
	}
	if fmt.Sprint(run.sink.at) != fmt.Sprint(step.sink.at) {
		t.Errorf("interrupts delivered at instructions:\n Run  %v\n Step %v", run.sink.at, step.sink.at)
	}
	if d, e := run.dev, step.dev; d != nil &&
		(d.cycles != e.cycles || d.posts != e.posts || d.left != e.left) {
		t.Errorf("device: Run %d cycles, %d posts, %d left; Step %d, %d, %d",
			d.cycles, d.posts, d.left, e.cycles, e.posts, e.left)
	}
}

// runScenario is a program run in phases: before each phase after the
// first, between (when set) patches or remaps, and PC returns to the
// start. check verifies the final result.
type runScenario struct {
	name       string
	mappedOnly bool
	build      func(t *testing.T, mapped bool) *runMachine
	phases     int
	between    func(t *testing.T, rm *runMachine)
	check      func(t *testing.T, rm *runMachine)
}

// hotLoop is a compute loop of bound instructions.
const hotLoop = `
start:	clrl r0
	movl #500, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	halt
`

// selfPatchingLoop patches its ADDL2 literal between two passes.
const selfPatchingLoop = `
start:	clrl r0
	movl #2, r3
outer:	movl #200, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	movb #9, @#loop+1
	sobgtr r3, outer
	halt
`

// boundComputeLoop is the shape of workload.Compute, widened with
// converts, zero-extends, bit tests and an AOBLSS, in which every
// instruction binds.
const boundComputeLoop = `
start:	movl #300, r11
	clrl r2
	movl #7, r3
	clrl r5
	clrl r8
loop:	addl2 r3, r2
	mull3 r2, #3, r4
	xorl2 r4, r2
	ashl #1, r2, r2
	cvtwl r2, r6
	movzbl r4, r7
	bitl #1, r6
	blbc r7, skip
	incl r5
skip:	aoblss #1000, r8, next
next:	sobgtr r11, loop
	halt
`

// selfModifying rewrites a bound MOVL's source register specifier
// after it has run in bound form.
const selfModifying = `
start:	movl #5, r3
	movl #9, r4
	clrl r2
again:	movl #3, r5
patch:	movl r3, r1
	sobgtr r5, patch
	tstl r2
	bneq done
	incl r2
	movb #0x54, @#patch+1	; register specifier r3 -> r4
	brb again
done:	halt
`

// storesBesideCode stores into data cells that share 32-byte lines
// with the loop's own instructions: a byte ending just before its
// first instruction and a longword starting just after its last. At
// r1 = 150 it patches the literal of the later ADDL2 at patch, 3 -> 7.
// Only that patch may drop a decode.
const storesBesideCode = `
start:	clrl r0
	clrl r2
	movl #300, r1
	brw loop
	.align 32
	.space 10
before:	.long 0
loop:	movb r1, @#before+3
	addl2 #3, r0
	movl r0, @#after
patch:	addl2 #3, r2
	cmpl r1, #150
	bneq next
	movb #7, @#patch+1
next:	decl r1
	beql done
	brb loop
after:	.long 0
done:	halt
`

// checkStoresBesideCode checks the result of storesBesideCode and that
// its layout puts each cell in a line with the code it adjoins.
func checkStoresBesideCode(t *testing.T, rm *runMachine) {
	t.Helper()
	line := func(va uint32) uint32 { return phys(va) >> 5 }
	if loop, after := rm.sym("loop"), rm.sym("after"); line(loop-1) != line(loop) ||
		line(after) != line(after-1) || after&3 != 0 {
		t.Fatalf("layout: loop %#x and after %#x do not share lines with their cells", loop, after)
	}
	wantR(0, 900)(t, rm)
	wantR(2, 151*3+149*7)(t, rm)
	if n := rm.c.Stats.DecodeInvalidations; n != 1 {
		t.Errorf("%d decodes dropped, want 1 (the patched ADDL2)", n)
	}
}

// interruptLoop is hotLoop, longer, with an ISR counting deliveries
// and a memory store every eighth iteration, so runs end both at device
// deadlines and at non-bound instructions.
const interruptLoop = `
start:	clrl r0
	clrl r5
	movl #3000, r1
loop:	addl2 #3, r0
	bitl #7, r1
	bneq skip
	movl r0, @#cell
skip:	sobgtr r1, loop
	halt
	.align 4
isr:	incl r5
	rei
	.align 4
cell:	.long 0
`

// memoryLoop is the §7.3 mix's fill and copy loops (MOVB R3, (R2)+ and
// MOVL (R6)+, (R7)+ under SOBGTR) and a MOVZBL from an absolute address,
// with buffers off the code's page, so runs of bound memory moves span
// device deadlines. buf starts two bytes past a longword boundary and
// crosses a page boundary: the copy's load of the longword across it
// falls back to the handler.
const memoryLoop = `
start:	clrl r5
	clrl r9
	movl #4, r10
outer:	movl #buf, r2
	movl #150, r3
fill:	movb r3, (r2)+
	sobgtr r3, fill
	movl #buf, r6
	movl #buf2, r7
	movl #38, r8
copy:	movl (r6)+, (r7)+
	sobgtr r8, copy
	movzbl @#buf2+7, r4
	addl2 r4, r9
	clrl @#buf2
	sobgtr r10, outer
	halt
	.align 4
isr:	incl r5
	rei
	.align 512
	.space 0x182
buf:	.space 160
buf2:	.space 160
`

// delayLoops runs SOBGTR and SOBGEQ loops, each branching to its own
// opcode, with counts from 0 to 300 iterations, so the test device's
// deadlines fall both inside them and beyond their exits, SOBGEQ from
// -5 among them; then a SOBGTR wait from 0x80000000 that only the ISR
// ends, by clearing its counter. The ISR counts deliveries in r5. r10
// sums the counters the loops exit with, since later code overwrites
// them.
const delayLoops = `
start:	clrl r5
	clrl r10
	movl #300, r1
d1:	sobgtr r1, d1
	addl2 r1, r10
	movl #1, r1
d2:	sobgtr r1, d2
	addl2 r1, r10
	clrl r1
d3:	sobgtr r1, d3
	addl2 r1, r10
	movl #40, r2
d4:	sobgeq r2, d4
	addl2 r2, r10
	movl #-5, r2
d5:	sobgeq r2, d5
	addl2 r2, r10
	movl #0x80000000, r8
w1:	sobgtr r8, w1
	addl2 r8, r10
	halt
	.align 4
isr:	incl r5
	clrl r8
	rei
`

// checkDelayLoops checks delayLoops' counters and that each interrupt
// was taken.
func checkDelayLoops(t *testing.T, rm *runMachine) {
	t.Helper()
	// Exit counters: 0, 0, -1, -1, -6 and -1.
	wantR(10, 0xFFFFFFF7)(t, rm)
	if n := uint64(len(rm.sink.at)); n < 1 || rm.c.R[5] != uint32(n) {
		t.Errorf("r5 = %d, %d deliveries; want one per delivery and at least one", rm.c.R[5], n)
	}
}

// patchedDelayLoop is a delay loop whose counter specifier the between
// step rewrites from r1 to r2: the dropped decode must not run in
// closed form again.
const patchedDelayLoop = `
start:	movl #200, r1
	movl #50, r2
loop:	sobgtr r1, loop
	halt
`

// aliasedLoopSlot puts a delay loop at a and a different instruction at
// b, 1024 bytes on, in the same decode-cache slot. The JMP ends its
// step, so the next step starts at b while the slot still holds a's
// loop: it must run b, not a's loop in closed form.
const aliasedLoopSlot = `
start:	movl #5, r1
a:	sobgtr r1, a
	movl #7, r1
	jmp @#b
	.space 1012
b:	incl r3
	halt
`

// checkAliasedLoopSlot checks aliasedLoopSlot's layout and result.
func checkAliasedLoopSlot(t *testing.T, rm *runMachine) {
	t.Helper()
	if d := rm.sym("b") - rm.sym("a"); d != dcSlots {
		t.Fatalf("layout: b is %d bytes after a, want %d", d, dcSlots)
	}
	wantR(1, 7)(t, rm)
	wantR(3, 1)(t, rm)
}

// countingLoops runs one of each counting-loop shape the workloads run
// and their edges: ADDL2 #7 under SOBGTR from 300; INCL under SOBGEQ
// from 40, its register crossing 0x7FFFFFFF (V); INCL under SOBGTR
// from 10, its register crossing zero (C); ADDL2 #63 under SOBGTR from
// 1, which exits on its first round; and an INCL + BRB spin that the
// ISR ends on its ninth delivery by rewriting the saved PC. r10 sums
// the registers the loops leave. The ISR counts deliveries in r5 and
// sums the saved PSLs in r9, so the condition codes at every delivery
// are compared too.
const countingLoops = `
start:	clrl r5
	clrl r9
	clrl r10
	clrl r0
	movl #300, r1
l1:	addl2 #7, r0
	sobgtr r1, l1
	addl2 r0, r10
	movl #0x7FFFFFF0, r2
	movl #40, r1
l2:	incl r2
	sobgeq r1, l2
	addl2 r2, r10
	movl #-3, r3
	movl #10, r1
l3:	incl r3
	sobgtr r1, l3
	addl2 r3, r10
	clrl r4
	movl #1, r1
l4:	addl2 #63, r4
	sobgtr r1, l4
	addl2 r4, r10
	clrl r6
spin:	incl r6
	brb spin
out:	halt
	.align 4
isr:	incl r5
	addl2 4(sp), r9
	cmpl r5, #9
	blss back
	movl #out, (sp)
back:	rei
`

// checkCountingLoops checks countingLoops' sums and that the spin ran
// until the ninth delivery (a tenth may come before the HALT).
func checkCountingLoops(t *testing.T, rm *runMachine) {
	t.Helper()
	// 2100, 0x7FFFFFF0+41, -3+10 and 63.
	wantR(10, 2100+0x7FFFFFF0+41+7+63)(t, rm)
	if rm.c.R[5] < 9 || rm.c.R[6] == 0 {
		t.Errorf("r5 = %d, r6 = %d; want at least 9 deliveries and a spin", rm.c.R[5], rm.c.R[6])
	}
}

// evictedLoop runs the fleet's ADDL2 + SOBGTR loop three times,
// leaving it between passes through alias, an instruction 1024 bytes
// on in its head's decode-cache slot, which evicts the head. Before the
// third pass it rewrites the head's literal, 7 -> 9.
const evictedLoop = `
start:	clrl r0
	clrl r3
	movl #3, r4
pass:	movl #100, r1
loop:	addl2 #7, r0
	sobgtr r1, loop
	cmpl r4, #2
	bneq skip
	movb #9, @#loop+1
skip:	jmp @#alias
next:	sobgtr r4, pass
	halt
	.space 996
alias:	incl r3
	jmp @#next
`

// checkEvictedLoop checks evictedLoop's layout and result, and that an
// unlimited Run took each pass's rounds in closed form: the device
// ticks about once per step, so one tick per round would be 300.
func checkEvictedLoop(t *testing.T, rm *runMachine) {
	t.Helper()
	if d := rm.sym("alias") - rm.sym("loop"); d != dcSlots {
		t.Fatalf("layout: alias is %d bytes after loop, want %d", d, dcSlots)
	}
	wantR(0, 200*7+100*9)(t, rm)
	wantR(3, 3)(t, rm)
	if rm.budget == 0 && rm.dev.ticks > 60 {
		t.Errorf("%d ticks for 300 rounds: a loop re-entered after eviction or a patch runs a round per step", rm.dev.ticks)
	}
}

// loopMachine builds a scenario machine for src with no device.
func loopMachine(src string) func(t *testing.T, mapped bool) *runMachine {
	return func(t *testing.T, mapped bool) *runMachine {
		return newRunMachine(t, src, mapped, nil)
	}
}

func wantR(reg int, want uint32) func(t *testing.T, rm *runMachine) {
	return func(t *testing.T, rm *runMachine) {
		t.Helper()
		if rm.c.R[reg] != want {
			t.Errorf("r%d = %d, want %d", reg, rm.c.R[reg], want)
		}
	}
}

// patchLiteral returns a between step that stores lit into the byte
// after the opcode at label loop (hotLoop's ADDL2 short literal)
// directly in physical memory, the way DMA or a snapshot restore
// would, then runs notify.
func patchLiteral(lit byte, notify func(c *CPU, pa uint32)) func(t *testing.T, rm *runMachine) {
	return func(t *testing.T, rm *runMachine) {
		t.Helper()
		pa := phys(rm.sym("loop") + 1)
		if err := rm.m.StoreByte(pa, lit); err != nil {
			t.Fatal(err)
		}
		notify(rm.c, pa)
	}
}

// remapStraddle backs the straddling loop's second page with
// strFrameB2, then invalidates the TLB with inval.
func remapStraddle(inval func(c *CPU)) func(t *testing.T, rm *runMachine) {
	return func(t *testing.T, rm *runMachine) {
		t.Helper()
		pte := vax.NewPTE(true, vax.ProtUW, true, strFrameB2)
		if err := rm.m.StoreLong(strSPT+4*3, uint32(pte)); err != nil {
			t.Fatal(err)
		}
		inval(rm.c)
	}
}

var runScenarios = []runScenario{
	{name: "hot loop", build: loopMachine(hotLoop), phases: 1, check: wantR(0, 1500)},
	{name: "self-patching loop", build: loopMachine(selfPatchingLoop), phases: 1,
		check: wantR(0, 200*3+200*9)},
	{name: "bound compute loop", build: loopMachine(boundComputeLoop), phases: 1},
	{name: "self-modifying code", build: loopMachine(selfModifying), phases: 1, check: wantR(1, 9)},
	{name: "stores beside code", build: loopMachine(storesBesideCode), phases: 1,
		check: checkStoresBesideCode},
	{name: "straddle TBIS", mappedOnly: true, build: crossPageLoopMachine, phases: 2,
		between: remapStraddle(func(c *CPU) { c.MMU.TBIS(uint32(vax.SystemBase) + 3*vax.PageSize) }),
		check:   wantR(0, straddleSum)},
	{name: "straddle TBIA", mappedOnly: true, build: crossPageLoopMachine, phases: 2,
		between: remapStraddle(func(c *CPU) { c.MMU.TBIA() }),
		check:   wantR(0, straddleSum)},
	{name: "DMA invalidate", build: loopMachine(hotLoop), phases: 2,
		between: patchLiteral(5, func(c *CPU, pa uint32) { c.InvalidateDecode(pa, 1) }),
		check:   wantR(0, 2500)},
	{name: "flush and restore", build: loopMachine(hotLoop), phases: 2,
		between: patchLiteral(7, func(c *CPU, _ uint32) { c.FlushDecodeCache() }),
		check:   wantR(0, 3500)},
	{name: "device interrupts", build: func(t *testing.T, mapped bool) *runMachine {
		rm := newRunMachine(t, interruptLoop, mapped, map[vax.Vector]string{0xC4: "isr"})
		rm.dev = newPeriodDevice(20, 0xC4, irqPeriods...)
		rm.c.AddDevice(rm.dev)
		return rm
	}, phases: 1, check: func(t *testing.T, rm *runMachine) {
		t.Helper()
		wantR(0, 9000)(t, rm)
		// A post while the last one is pending or its ISR runs
		// coalesces with it.
		n := uint64(len(rm.sink.at))
		if n == 0 || rm.c.R[5] != uint32(n) || n > rm.dev.posts {
			t.Errorf("r5 = %d, %d deliveries, %d posts", rm.c.R[5], n, rm.dev.posts)
		}
	}},
	{name: "memory loop", build: func(t *testing.T, mapped bool) *runMachine {
		rm := newRunMachine(t, memoryLoop, mapped, map[vax.Vector]string{0xC4: "isr"})
		rm.dev = newPeriodDevice(20, 0xC4, 700, 13, 350, 2, 1100, 41)
		rm.c.AddDevice(rm.dev)
		return rm
	}, phases: 1, check: checkMemoryLoop},
	{name: "patched delay loop", build: loopMachine(patchedDelayLoop), phases: 2,
		between: patchLiteral(0x52, func(c *CPU, pa uint32) { c.InvalidateDecode(pa, 1) }),
		check: func(t *testing.T, rm *runMachine) {
			t.Helper()
			wantR(1, 200)(t, rm)
			wantR(2, 0)(t, rm)
		}},
	{name: "aliased loop slot", build: loopMachine(aliasedLoopSlot), phases: 1, check: checkAliasedLoopSlot},
	{name: "delay loops", build: func(t *testing.T, mapped bool) *runMachine {
		rm := newRunMachine(t, delayLoops, mapped, map[vax.Vector]string{0xC4: "isr"})
		// The first period is long enough for the first loop to reach
		// its exit inside it.
		rm.dev = newPeriodDevice(20, 0xC4, append([]uint64{900}, irqPeriods...)...)
		rm.c.AddDevice(rm.dev)
		return rm
	}, phases: 1, check: checkDelayLoops},
	{name: "counting loops", build: func(t *testing.T, mapped bool) *runMachine {
		rm := newRunMachine(t, countingLoops, mapped, map[vax.Vector]string{0xC4: "isr"})
		rm.dev = newPeriodDevice(20, 0xC4, append([]uint64{3000}, irqPeriods...)...)
		rm.c.AddDevice(rm.dev)
		return rm
	}, phases: 1, check: checkCountingLoops},
	{name: "evicted loop", build: func(t *testing.T, mapped bool) *runMachine {
		rm := newRunMachine(t, evictedLoop, mapped, nil)
		rm.dev = newPeriodDevice(0, 0, 1<<40)
		rm.c.AddDevice(rm.dev)
		return rm
	}, phases: 1, check: checkEvictedLoop},
}

// checkMemoryLoop checks memoryLoop's result, that every interrupt was
// taken, and that the bound form ran most of its instructions.
func checkMemoryLoop(t *testing.T, rm *runMachine) {
	t.Helper()
	wantR(9, 4*(150-7))(t, rm)
	if n := uint64(len(rm.sink.at)); n == 0 || rm.c.R[5] != uint32(n) {
		t.Errorf("r5 = %d, %d deliveries", rm.c.R[5], n)
	}
	if s := rm.c.Stats; 2*s.BoundHits < s.Instructions {
		t.Errorf("%d bound hits in %d instructions, want at least half", s.BoundHits, s.Instructions)
	}
}

// TestRunMatchesStep runs every scenario with mapping off and on and
// with Run budgets of 1, 2, 7 and unlimited against Step.
func TestRunMatchesStep(t *testing.T) {
	for _, sc := range runScenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, mapped := range []bool{false, true} {
				if sc.mappedOnly && !mapped {
					continue
				}
				for _, budget := range []uint64{1, 2, 7, 0} {
					t.Run(fmt.Sprintf("mapped=%t/budget=%d", mapped, budget), func(t *testing.T) {
						run, step := sc.build(t, mapped), sc.build(t, mapped)
						for phase := 0; phase < sc.phases; phase++ {
							if phase > 0 {
								for _, rm := range []*runMachine{run, step} {
									if sc.between != nil {
										sc.between(t, rm)
									}
									rm.c.ClearHalt()
									rm.c.SetPC(rm.start)
								}
							}
							diffRun(t, run, step, run.drive(t, budget), step.drive(t, stepOnly))
						}
						if sc.check != nil {
							sc.check(t, run)
						}
					})
				}
			}
		})
	}
}

// TestRunSelfModifying patches a hot loop's literal between two passes
// inside one unlimited Run: the store must drop the decoded ADDL2 so
// the second pass executes the new bytes.
func TestRunSelfModifying(t *testing.T) {
	for _, mapped := range []bool{false, true} {
		rm := newRunMachine(t, selfPatchingLoop, mapped, nil)
		rm.drive(t, 0)
		// Pass 1 adds 3 two hundred times, pass 2 adds 9 two hundred times.
		if want := uint32(200*3 + 200*9); rm.c.R[0] != want {
			t.Errorf("mapped=%t: r0 = %d, want %d (stale decode executed)", mapped, rm.c.R[0], want)
		}
		if rm.c.Stats.DecodeInvalidations == 0 {
			t.Errorf("mapped=%t: store to hot code dropped no decoded instructions", mapped)
		}
	}
}

// trapAllDelayLoop leaves r0 = 1500, as hotLoop does, after a delay
// loop branching to itself.
const trapAllDelayLoop = `
start:	movl #1500, r0
	movl #500, r1
loop:	sobgtr r1, loop
	halt
`

// trapAllCountingLoop leaves r0 = 1500 after an INCL + SOBGEQ loop.
const trapAllCountingLoop = `
start:	movl #1000, r0
	movl #499, r1
loop:	incl r0
	sobgeq r1, loop
	halt
`

// TestStepAndTrapAllNeverBatch checks the two cases that must take one
// tick per step: a Step-driven machine, and Run under TrapAllInVM in VM
// kernel mode, where every instruction traps before it executes, the
// rounds of counting loops (hotLoop's ADDL2 + SOBGTR among them) and a
// delay loop's iterations too. The trap-all Run must also match a
// Step-driven trap-all machine.
func TestStepAndTrapAllNeverBatch(t *testing.T) {
	for _, src := range []string{hotLoop, trapAllDelayLoop, trapAllCountingLoop} {
		rm := newRunMachine(t, src, true, nil)
		rm.dev = newPeriodDevice(0, 0, 97)
		rm.c.AddDevice(rm.dev)
		if steps := rm.drive(t, stepOnly); rm.dev.ticks != steps {
			t.Errorf("Step ticked %d times in %d steps", rm.dev.ticks, steps)
		}

		build := func() (*vmMachine, *periodDevice) {
			vm := newVMMachine(t, src)
			vm.c.TrapAllInVM = true
			vm.sink.onTrap = func(c *CPU, e *vax.Exception) bool {
				if e.VMInfo != nil && e.VMInfo.Opcode == 0xFFFF {
					// The stand-in VMM lets the trapped instruction run
					// directly, back in the VM.
					c.SetPSL(c.PSL().WithVM(true))
					c.StepVMInstruction()
					return true
				}
				c.Halt(HaltInstruction)
				return true
			}
			d := newPeriodDevice(0, 0, 1000)
			vm.c.AddDevice(d)
			return vm, d
		}
		run, devRun := build()
		step, devStep := build()
		runSteps := run.c.Run(100_000)
		var stepSteps uint64
		for !step.c.Halted {
			step.c.Step()
			stepSteps++
		}
		if !run.c.Halted || run.c.R[0] != 1500 || step.c.R[0] != 1500 {
			t.Fatalf("halted %t, r0 = %d (Run) and %d (Step), want 1500", run.c.Halted, run.c.R[0], step.c.R[0])
		}
		if runSteps != stepSteps || run.c.Cycles != step.c.Cycles || run.c.Stats != step.c.Stats ||
			run.c.MMU.Stats != step.c.MMU.Stats {
			t.Errorf("Run and Step diverge: steps %d/%d, cycles %d/%d\n %+v\n %+v",
				runSteps, stepSteps, run.c.Cycles, step.c.Cycles, run.c.Stats, step.c.Stats)
		}
		if devRun.ticks != runSteps || devStep.ticks != stepSteps {
			t.Errorf("ticks %d (Run) and %d (Step) for %d steps: trap-all batched", devRun.ticks, devStep.ticks, runSteps)
		}
	}
}

// TestRunAllocParity pins the steady-state run loop at zero
// allocations, mapped and with a device attached.
func TestRunAllocParity(t *testing.T) {
	rm := newRunMachine(t, hotLoop, true, nil)
	rm.dev = newPeriodDevice(0, 0, 5000)
	rm.c.AddDevice(rm.dev)
	rm.drive(t, 0) // warm: decode cache filled
	got := testing.AllocsPerRun(10, func() {
		rm.c.ClearHalt()
		rm.c.SetPC(rm.start)
		rm.c.Run(100000)
	})
	if got != 0 {
		t.Fatalf("steady-state Run allocates %.1f/run, want 0", got)
	}
}

// Straddling hot loop: hand-assembled so the ADDL2's immediate crosses
// the S page 2/3 boundary. Page 3 is backed by frame strFrameB first
// and remapped to strFrameB2, whose copy of the code carries a
// different immediate in the bytes past the boundary (the low
// immediate byte lives on page 2 and cannot change, so the two values
// share it).
const (
	slImm1 = 0x11111111
	slImm2 = 0x22222211 // same low byte: it lives on the first page
	slLaps = 200
)

// straddleSum is R0 after the remapped pass, wrapped to 32 bits.
var straddleSum = func() uint32 { imm := uint32(slImm2); return imm * slLaps }()

// crossPageLoopMachine maps S pages 0-3 to frames 16, 17, strFrameA,
// strFrameB and lays out:
//
//	S+0x400: CLRL R0; MOVL #laps, R1; BRW loop
//	S+0x5FD: loop: ADDL2 #imm32, R0   (immediate crosses S+0x600)
//	S+0x604: SOBGTR R1, loop
//	S+0x607: HALT
func crossPageLoopMachine(t *testing.T, _ bool) *runMachine {
	t.Helper()
	m := mem.New(256 * 1024)
	wr := func(pa uint32, bs ...byte) {
		for i, b := range bs {
			if err := m.StoreByte(pa+uint32(i), b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Page 2 (frame strFrameA): prologue at offset 0, loop head at the
	// page's last three bytes (opcode C0, specifier 8F, imm byte 0).
	p2 := uint32(strFrameA * vax.PageSize)
	wr(p2,
		0xD4, 0x50, // CLRL R0
		0xD0, 0x8F, byte(slLaps), 0x00, 0x00, 0x00, 0x51, // MOVL #laps, R1
		0x31, 0xF1, 0x01) // BRW loop (disp 0x1F1 from S+0x40C)
	wr(p2+vax.PageSize-3, 0xC0, 0x8F, slImm1&0xFF) // ADDL2 #imm, ...
	// Page 3 (frames strFrameB and strFrameB2): the immediate's high
	// three bytes, the R0 specifier, SOBGTR back to loop, HALT.
	tail := func(frame, imm uint32) {
		pa := frame * vax.PageSize
		wr(pa, byte(imm>>8), byte(imm>>16), byte(imm>>24), 0x50, // ... #imm, R0
			0xF5, 0x51, 0xF6, // SOBGTR R1, loop (disp -0x0A)
			0x00) // HALT
	}
	tail(strFrameB, slImm1)
	tail(strFrameB2, slImm2)

	for i, frame := range []uint32{16, 17, strFrameA, strFrameB} {
		pte := vax.NewPTE(true, vax.ProtUW, true, frame)
		if err := m.StoreLong(strSPT+4*uint32(i), uint32(pte)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, StandardVAX)
	c.MMU.SBR = strSPT
	c.MMU.SLR = 4
	c.MMU.Enabled = true
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.SetSP(0x8000)
	rm := &runMachine{c: c, m: m, start: uint32(vax.SystemBase) + 2*vax.PageSize, sink: &irqSink{}}
	c.Sink = rm.sink
	c.SetPC(rm.start)
	return rm
}
