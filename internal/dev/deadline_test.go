package dev

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/vax"
)

// The deadline contract (cpu.Device): one Tick of a+b leaves the
// device — its registers, counters and posted interrupts, and for the
// disk the memory it transfers into — exactly as Tick(a) followed by
// Tick(b) whenever a+b ≤ Deadline(), and also whenever a < Deadline()
// (the run loop's last bound instruction may cross the deadline); and
// the first interrupt posts exactly when Deadline() cycles have
// passed. The processor's run loop sums ticks on the strength of it.

// deadlineCase builds a device in one state on a fresh processor;
// irq says whether its next state change posts an interrupt.
type deadlineCase struct {
	name  string
	setup func(t *testing.T) (*cpu.CPU, cpu.Device)
	irq   bool
}

// unbounded stands in for an unbounded deadline: the splits tested go
// this far and no further.
const unbounded = 1000

func clockCase(name string, period uint32, pre uint64, ie bool) deadlineCase {
	return deadlineCase{name: name, irq: ie, setup: func(t *testing.T) (*cpu.CPU, cpu.Device) {
		c := newCPU(t)
		k := NewClock()
		c.AddDevice(k)
		k.Interval(period)
		if !ie {
			k.iccs &^= vax.ICCSIE
		}
		k.Tick(c, pre)
		c.ClearInterrupt(vax.IPLClock)
		return c, k
	}}
}

func diskCase(name string, pre uint64, ie bool) deadlineCase {
	return deadlineCase{name: name, irq: ie && pre < DiskLatency, setup: func(t *testing.T) (*cpu.CPU, cpu.Device) {
		c := newCPU(t)
		d := NewDisk(0x20000000, 4)
		c.AddDevice(d)
		copy(d.Image()[vax.PageSize:], "block one data")
		for _, r := range [][2]uint32{{DiskRegBlock, 1}, {DiskRegAddr, 0x4000}, {DiskRegCount, 32}} {
			if err := d.StoreReg(c, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		csr := DiskCSRGo | DiskFuncRead
		if ie {
			csr |= DiskCSRIE
		}
		if err := d.StoreReg(c, DiskRegCSR, csr); err != nil {
			t.Fatal(err)
		}
		d.Tick(c, pre)
		c.ClearInterrupt(vax.IPLDisk)
		return c, d
	}}
}

func consoleCase(name string, ie bool, input string) deadlineCase {
	return deadlineCase{name: name, irq: ie && input != "", setup: func(t *testing.T) (*cpu.CPU, cpu.Device) {
		c := newCPU(t)
		con := NewConsole()
		c.AddDevice(con)
		if ie {
			if err := c.WriteIPR(vax.IPRRXCS, vax.ConsoleIE); err != nil {
				t.Fatal(err)
			}
		}
		con.Feed(input)
		return c, con
	}}
}

var deadlineCases = []deadlineCase{
	clockCase("clock fresh", 100, 0, true),
	clockCase("clock mid-interval", 100, 37, true),
	clockCase("clock after an interrupt", 100, 130, true),
	clockCase("clock interrupts disabled", 100, 0, false),
	clockCase("clock ICR zero", 0, 0, true),
	{name: "clock stopped", setup: func(t *testing.T) (*cpu.CPU, cpu.Device) {
		c := newCPU(t)
		k := NewClock()
		c.AddDevice(k)
		return c, k
	}},
	diskCase("disk transfer in flight", 0, true),
	diskCase("disk transfer half done", 120, true),
	diskCase("disk transfer, interrupts disabled", 0, false),
	diskCase("disk idle after a transfer", DiskLatency, true),
	consoleCase("console receive due", true, "x"),
	consoleCase("console no input", true, ""),
	consoleCase("console interrupts disabled", false, "x"),
}

// sameState reports whether two devices built by one case, ticked
// differently, ended in the same state.
func sameState(c1 *cpu.CPU, d1 cpu.Device, c2 *cpu.CPU, d2 cpu.Device) bool {
	if !reflect.DeepEqual(d1, d2) || c1.PendingAbove(0) != c2.PendingAbove(0) {
		return false
	}
	m1, _ := c1.Mem.LoadBytes(0x4000, 32)
	m2, _ := c2.Mem.LoadBytes(0x4000, 32)
	return bytes.Equal(m1, m2)
}

// TestDeadlineTicksSum checks Tick(a+b) ≡ Tick(a); Tick(b) for sums
// from 0 to past Deadline() (past 1.5 periods for the clock), each
// split at both ends and in the middle, wherever a+b ≤ Deadline() or
// a < Deadline().
func TestDeadlineTicksSum(t *testing.T) {
	for _, tc := range deadlineCases {
		t.Run(tc.name, func(t *testing.T) {
			_, d := tc.setup(t)
			dl := min(d.Deadline(), unbounded)
			for _, sum := range []uint64{0, 1, 2, dl / 3, dl / 2, dl - min(dl, 1), dl, dl + 1, dl + 150} {
				for _, a := range []uint64{0, 1, sum / 2, sum - min(sum, 1), sum, dl - min(dl, 1)} {
					if a > sum || (sum > dl && a >= dl) {
						continue
					}
					c1, d1 := tc.setup(t)
					d1.Tick(c1, sum)
					c2, d2 := tc.setup(t)
					d2.Tick(c2, a)
					d2.Tick(c2, sum-a)
					if !sameState(c1, d1, c2, d2) {
						t.Fatalf("Tick(%d) and Tick(%d); Tick(%d) diverge:\n %+v\n %+v",
							sum, a, sum-a, d1, d2)
					}
				}
			}
		})
	}
}

// TestDeadlineFirstInterrupt checks that no interrupt posts before
// Deadline() cycles and, where the state change posts one, that it
// posts exactly then.
func TestDeadlineFirstInterrupt(t *testing.T) {
	for _, tc := range deadlineCases {
		t.Run(tc.name, func(t *testing.T) {
			c, d := tc.setup(t)
			dl := d.Deadline()
			if !tc.irq {
				d.Tick(c, unbounded)
				if lvl := c.PendingAbove(0); lvl != 0 {
					t.Fatalf("IPL %d posted within %d cycles", lvl, unbounded)
				}
				return
			}
			if dl >= unbounded {
				t.Fatalf("interrupt due, yet deadline %d", dl)
			}
			if dl > 0 {
				d.Tick(c, dl-1)
				if lvl := c.PendingAbove(0); lvl != 0 {
					t.Fatalf("IPL %d posted after %d of %d cycles", lvl, dl-1, dl)
				}
				d.Tick(c, 1)
			} else {
				d.Tick(c, 0)
			}
			if c.PendingAbove(0) == 0 {
				t.Fatalf("no interrupt posted at the deadline, %d cycles", dl)
			}
		})
	}
}
