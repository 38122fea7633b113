package repro

import (
	"testing"

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
