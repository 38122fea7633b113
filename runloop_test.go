package repro

import (
	"testing"

	"repro/internal/cpu"
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

// TestRunLoopBatchesDeviceTicks is the run loop's gate: on the
// throughput loop, Run ticks a device with a 5000-cycle period at most
// once per 100 instructions, and the device sees the same summed
// cycles and period boundaries as one Step at a time gives it. It
// fails if Run stops executing bound instructions back to back.
func TestRunLoopBatchesDeviceTicks(t *testing.T) {
	drive := func(step bool) (*cpu.CPU, *countingDevice) {
		c, start := newThroughputCPU(t)
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
		if c.R[0] != 7000 {
			t.Fatalf("guest computed %d, want 7000", c.R[0])
		}
		return c, d
	}
	run, dRun := drive(false)
	step, dStep := drive(true)
	if run.Cycles != step.Cycles || run.Stats != step.Stats {
		t.Fatalf("Run and Step diverge: cycles %d/%d\n %+v\n %+v",
			run.Cycles, step.Cycles, run.Stats, step.Stats)
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
}
