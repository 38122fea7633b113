package repro

import (
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/vax"
)

// countingDevice has no state change of its own but an additive period:
// its deadline is the cycles left to the next multiple of period, so a
// run of bound instructions may sum its ticks up to there. It counts
// calls, summed cycles and period boundaries crossed.
type countingDevice struct {
	period, left           uint64
	ticks, cycles, periods uint64
}

func (d *countingDevice) Deadline() uint64 { return d.left }

func (d *countingDevice) Tick(_ *cpu.CPU, n uint64) {
	d.ticks++
	d.cycles += n
	for n >= d.left {
		n -= d.left
		d.left = d.period
		d.periods++
	}
	d.left -= n
}

// memoryLoopProg is the §7.3 mix's fill and copy loops, MOVB R3, (R2)+
// and MOVL (R6)+, (R7)+ under SOBGTR, on buffers off the code's page.
const memoryLoopProg = `
start:	movl #20, r10
outer:	movl #buf, r2
	movl #150, r3
fill:	movb r3, (r2)+
	sobgtr r3, fill
	movl #buf, r6
	movl #buf2, r7
	movl #38, r8
copy:	movl (r6)+, (r7)+
	sobgtr r8, copy
	sobgtr r10, outer
	movzbl @#buf2+7, r0
	halt
	.align 512
buf:	.space 160
buf2:	.space 160
`

// newMemoryLoopCPU loads memoryLoopProg at S+0x400 on a bare machine
// with mapping on, S page i mapped to frame i, and returns the
// processor and the program's start address.
func newMemoryLoopCPU(tb testing.TB) (*cpu.CPU, uint32) {
	tb.Helper()
	const spt, pages = 0xF000, 128
	prog, err := asm.Assemble(memoryLoopProg, vax.SystemBase+0x400)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	m := mem.New(64 * 1024)
	if err := m.StoreBytes(0x400, prog.Code); err != nil {
		tb.Fatal(err)
	}
	for i := uint32(0); i < pages; i++ {
		if err := m.StoreLong(spt+4*i, uint32(vax.NewPTE(true, vax.ProtKW, true, i))); err != nil {
			tb.Fatal(err)
		}
	}
	c := cpu.New(m, cpu.StandardVAX)
	c.MMU.SBR, c.MMU.SLR, c.MMU.Enabled = spt, pages, true
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.SetSP(vax.SystemBase + 0x8000)
	return c, prog.MustSymbol("start")
}

// TestRunLoopBatchesDeviceTicks is the run loop's gate: on the
// throughput loop and on the mix's memory-move loops, Run ticks a
// device with a 5000-cycle period at most once per 100 instructions,
// and the device sees the same summed cycles and period boundaries as
// one Step at a time gives it. It fails if Run stops executing bound
// instructions, register-only or memory moves, back to back.
func TestRunLoopBatchesDeviceTicks(t *testing.T) {
	for _, g := range []struct {
		name  string
		build func(testing.TB) (*cpu.CPU, uint32)
		r0    uint32
	}{
		{"throughput", newThroughputCPU, 7000},
		{"memory moves", newMemoryLoopCPU, 150 - 7},
	} {
		t.Run(g.name, func(t *testing.T) {
			drive := func(step bool) (*cpu.CPU, *countingDevice) {
				c, start := g.build(t)
				d := &countingDevice{period: 5000, left: 5000}
				c.AddDevice(d)
				for i := 0; i < 20; i++ {
					c.ClearHalt()
					c.SetPC(start)
					if step {
						for !c.Halted {
							c.Step()
						}
					} else {
						c.Run(0)
					}
				}
				if c.R[0] != g.r0 {
					t.Fatalf("guest computed %d, want %d", c.R[0], g.r0)
				}
				return c, d
			}
			run, dRun := drive(false)
			step, dStep := drive(true)
			if run.Cycles != step.Cycles || run.Stats != step.Stats || run.MMU.Stats != step.MMU.Stats {
				t.Fatalf("Run and Step diverge: cycles %d/%d\n %+v\n %+v\n %+v\n %+v",
					run.Cycles, step.Cycles, run.Stats, step.Stats, run.MMU.Stats, step.MMU.Stats)
			}
			if dRun.cycles != dStep.cycles || dRun.periods != dStep.periods || dRun.left != dStep.left {
				t.Errorf("device under Run saw %d cycles, %d periods, %d left; under Step %d, %d, %d",
					dRun.cycles, dRun.periods, dRun.left, dStep.cycles, dStep.periods, dStep.left)
			}
			if dStep.cycles != step.Cycles {
				t.Errorf("Step ticked %d cycles, machine ran %d", dStep.cycles, step.Cycles)
			}
			instrs := run.Stats.Instructions
			if dRun.ticks*100 > instrs {
				t.Errorf("Run ticked %d times for %d instructions, want at most one tick per 100", dRun.ticks, instrs)
			}
			t.Logf("%d instructions, %d ticks under Run, %d under Step", instrs, dRun.ticks, dStep.ticks)
		})
	}
}

// TestRunDelayLoopClosedForm pins the closed form of one-instruction
// loops: SOBGTR R1 branching to itself from R1 = 0x80000000 runs 2^31
// iterations, since R1 - 1 wraps positive, on a machine with no device,
// driven by Run(1<<24) calls. One iteration per step would take tens
// of seconds (about 11 ns each on a 2-vCPU host); the closed form
// takes one step per call, so the test fails once a second has passed.
// The counts must be exactly those of one Step at a time.
func TestRunDelayLoopClosedForm(t *testing.T) {
	prog, err := asm.Assemble("l:\tsobgtr r1, l\n\thalt\n", 0x400)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New(64 * 1024)
	if err := m.StoreBytes(prog.Origin, prog.Code); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(m, cpu.StandardVAX)
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.SetPC(prog.MustSymbol("l"))
	c.R[1] = 0x80000000
	begin := time.Now()
	for !c.Halted {
		c.Run(1 << 24)
		if d := time.Since(begin); d > time.Second {
			t.Fatalf("after %v, %d instructions run, r1 = %#x: the delay loop runs one iteration per step",
				d, c.Stats.Instructions, c.R[1])
		}
	}
	// 2^31 SOBGTRs and the HALT, CostBase cycles each.
	const iters = 1 << 31
	if want := uint64(iters + 1); c.Stats.Instructions != want {
		t.Errorf("%d instructions, want %d", c.Stats.Instructions, want)
	}
	if want := uint64(cpu.CostBase * (iters + 1)); c.Cycles != want {
		t.Errorf("%d cycles, want %d", c.Cycles, want)
	}
	if c.R[1] != 0 || uint32(c.PSL())&vax.PSLZ == 0 {
		t.Errorf("r1 = %#x, PSL %s; want 0 with Z set", c.R[1], c.PSL())
	}
	t.Logf("%d instructions in %v", c.Stats.Instructions, time.Since(begin))
}

// TestRunCountingLoopClosedForm pins the closed form of counting loops
// with a body: the compute guests' "l: addl2 #7, r0; sobgtr r1, l"
// from r1 = 0x80000000 runs 2^31 rounds, and the runaway guests'
// "spin: incl r5; brb spin" is driven to exactly 2^32 instructions,
// 2^31 rounds, each on a machine with no device by Run(1<<24) calls.
// One instruction per step would take tens of seconds each; the closed
// form takes one step per call, so the test fails once a second has
// passed. The counts, registers and condition codes must be exactly
// those of one Step at a time.
func TestRunCountingLoopClosedForm(t *testing.T) {
	const rounds = 1 << 31
	for _, tc := range []struct {
		src      string
		r1       uint32
		stop     uint64 // instructions to run; 0: to HALT
		reg      int
		want, cc uint32 // reg and NZVC at the end
	}{
		// 2^31 ADDL2s, SOBGTRs and the HALT; 7*2^31 wraps to 2^31, the
		// last ADDL2 carries nothing, and r1 ends 0: Z.
		{"l:\taddl2 #7, r0\n\tsobgtr r1, l\n\thalt\n", 0x80000000, 0, 0, 0x80000000, vax.PSLZ},
		// The last INCL takes r5 from 0x7FFFFFFF to 0x80000000: N and V.
		{"l:\tincl r5\n\tbrb l\n", 0, 2 * rounds, 5, 0x80000000, vax.PSLN | vax.PSLV},
	} {
		prog, err := asm.Assemble(tc.src, 0x400)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		m := mem.New(64 * 1024)
		if err := m.StoreBytes(prog.Origin, prog.Code); err != nil {
			t.Fatal(err)
		}
		c := cpu.New(m, cpu.StandardVAX)
		c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
		l := prog.MustSymbol("l")
		c.SetPC(l)
		c.R[1] = tc.r1
		begin := time.Now()
		for !c.Halted && (tc.stop == 0 || c.Stats.Instructions < tc.stop) {
			budget := uint64(1 << 24)
			if tc.stop != 0 {
				budget = min(budget, tc.stop-c.Stats.Instructions)
			}
			c.Run(budget)
			if d := time.Since(begin); d > time.Second {
				t.Fatalf("%q: after %v, %d instructions run: the loop runs one instruction per step",
					tc.src, d, c.Stats.Instructions)
			}
		}
		instrs, pc := uint64(2*rounds), l
		if tc.stop == 0 {
			instrs, pc = 2*rounds+1, prog.End()
		}
		if c.Stats.Instructions != instrs || c.Cycles != cpu.CostBase*instrs {
			t.Errorf("%q: %d instructions, %d cycles; want %d and %d", tc.src, c.Stats.Instructions, c.Cycles, instrs, cpu.CostBase*instrs)
		}
		if c.R[tc.reg] != tc.want || c.R[1] != 0 || c.PC() != pc || uint32(c.PSL())&vax.PSLCC != tc.cc {
			t.Errorf("%q: r%d = %#x, r1 = %#x, pc %#x, PSL %s; want %#x, 0, %#x and NZVC %04b",
				tc.src, tc.reg, c.R[tc.reg], c.R[1], c.PC(), c.PSL(), tc.want, pc, tc.cc)
		}
		t.Logf("%q: %d instructions in %v", tc.src, c.Stats.Instructions, time.Since(begin))
	}
}
