package dev

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/vax"
)

func newCPU(t *testing.T) *cpu.CPU {
	t.Helper()
	c := cpu.New(mem.New(64*1024), cpu.StandardVAX)
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	return c
}

func TestConsoleOutput(t *testing.T) {
	c := newCPU(t)
	con := NewConsole()
	c.AddDevice(con)
	for _, b := range []byte("hi") {
		if err := c.WriteIPR(vax.IPRTXDB, uint32(b)); err != nil {
			t.Fatal(err)
		}
	}
	if con.Output() != "hi" {
		t.Errorf("output = %q", con.Output())
	}
	v, err := c.ReadIPR(vax.IPRTXCS)
	if err != nil || v&vax.ConsoleReady == 0 {
		t.Errorf("TXCS = %#x, %v", v, err)
	}
}

func TestConsoleInput(t *testing.T) {
	c := newCPU(t)
	con := NewConsole()
	c.AddDevice(con)
	v, _ := c.ReadIPR(vax.IPRRXCS)
	if v&vax.ConsoleReady != 0 {
		t.Error("RXCS ready with no input")
	}
	con.Feed("ab")
	v, _ = c.ReadIPR(vax.IPRRXCS)
	if v&vax.ConsoleReady == 0 {
		t.Error("RXCS not ready with input queued")
	}
	b1, _ := c.ReadIPR(vax.IPRRXDB)
	b2, _ := c.ReadIPR(vax.IPRRXDB)
	if b1 != 'a' || b2 != 'b' {
		t.Errorf("read %c %c", b1, b2)
	}
}

func TestConsoleReceiveInterrupt(t *testing.T) {
	c := newCPU(t)
	con := NewConsole()
	c.AddDevice(con)
	if err := c.WriteIPR(vax.IPRRXCS, vax.ConsoleIE); err != nil {
		t.Fatal(err)
	}
	con.Feed("x")
	con.Tick(c, 1)
	if c.PendingAbove(0) != vax.IPLConsole {
		t.Error("no console interrupt posted")
	}
}

func TestClockCountsAndInterrupts(t *testing.T) {
	c := newCPU(t)
	k := NewClock()
	c.AddDevice(k)
	k.Interval(100)
	if !k.Running() {
		t.Fatal("clock not running")
	}
	k.Tick(c, 99)
	if k.Ticks != 0 {
		t.Error("ticked early")
	}
	k.Tick(c, 1)
	if k.Ticks != 1 {
		t.Errorf("Ticks = %d", k.Ticks)
	}
	if c.PendingAbove(0) != vax.IPLClock {
		t.Error("no clock interrupt")
	}
	// Acknowledge.
	iccs, _ := c.ReadIPR(vax.IPRICCS)
	if iccs&vax.ICCSInt == 0 {
		t.Error("ICCS interrupt bit clear")
	}
	if err := c.WriteIPR(vax.IPRICCS, iccs); err != nil {
		t.Fatal(err)
	}
	if c.PendingAbove(0) != 0 {
		t.Error("ack did not clear interrupt")
	}
	// Multiple intervals in one tick.
	k.Tick(c, 250)
	if k.Ticks != 3 {
		t.Errorf("Ticks = %d, want 3", k.Ticks)
	}
}

func TestClockIPRRoundTrip(t *testing.T) {
	c := newCPU(t)
	k := NewClock()
	c.AddDevice(k)
	if err := c.WriteIPR(vax.IPRNICR, ^uint32(49)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteIPR(vax.IPRICCS, vax.ICCSTransfer|vax.ICCSRun); err != nil {
		t.Fatal(err)
	}
	icr, _ := c.ReadIPR(vax.IPRICR)
	if icr != ^uint32(49) {
		t.Errorf("ICR = %#x", icr)
	}
	nicr, _ := c.ReadIPR(vax.IPRNICR)
	if nicr != ^uint32(49) {
		t.Errorf("NICR = %#x", nicr)
	}
	todr1, _ := c.ReadIPR(vax.IPRTODR)
	c.AddCycles(1000)
	todr2, _ := c.ReadIPR(vax.IPRTODR)
	if todr2 <= todr1 {
		t.Error("TODR does not advance")
	}
}

func TestDiskMMIOTransfer(t *testing.T) {
	c := newCPU(t)
	d := NewDisk(0x20000000, 16)
	c.AddDevice(d)
	copy(d.Image()[vax.PageSize:], []byte("block one data"))

	// Program a read of block 1 into physical 0x4000 via the CSRs, as a
	// driver would.
	write := func(off, v uint32) {
		if err := d.StoreReg(c, off, v); err != nil {
			t.Fatal(err)
		}
	}
	write(DiskRegBlock, 1)
	write(DiskRegAddr, 0x4000)
	write(DiskRegCount, 32)
	write(DiskRegCSR, DiskCSRGo|DiskFuncRead|DiskCSRIE)
	if v, _ := d.LoadReg(c, DiskRegCSR); v&DiskCSRReady != 0 {
		t.Fatal("disk ready while busy")
	}
	d.Tick(c, DiskLatency)
	if v, _ := d.LoadReg(c, DiskRegCSR); v&DiskCSRReady == 0 {
		t.Fatal("disk not ready after latency")
	}
	if v, _ := d.LoadReg(c, DiskRegStat); v != DiskStatOK {
		t.Fatalf("status = %d", v)
	}
	got, _ := c.Mem.LoadBytes(0x4000, 14)
	if string(got) != "block one data" {
		t.Errorf("read data %q", got)
	}
	if c.PendingAbove(0) != vax.IPLDisk {
		t.Error("no completion interrupt")
	}
	if d.Reads != 1 || d.RegAccesses == 0 {
		t.Errorf("stats: reads=%d regaccesses=%d", d.Reads, d.RegAccesses)
	}
}

// TestDiskReadDropsStaleDecodes reads a block over code the CPU has
// cached: the next execution must run the bytes the DMA wrote.
func TestDiskReadDropsStaleDecodes(t *testing.T) {
	c := newCPU(t)
	d := NewDisk(0x20000000, 2)
	c.AddDevice(d)
	if err := c.Mem.StoreBytes(0x4000, []byte{0xD0, 0x05, 0x51, 0x00}); err != nil { // MOVL #5, R1; HALT
		t.Fatal(err)
	}
	copy(d.Image()[vax.PageSize:], []byte{0xD0, 0x09, 0x51, 0x00}) // MOVL #9, R1; HALT
	run := func() {
		c.ClearHalt()
		c.SetPC(0x4000)
		c.Run(10)
	}
	run()
	run()
	for _, r := range [][2]uint32{{DiskRegBlock, 1}, {DiskRegAddr, 0x4000}, {DiskRegCount, 4}, {DiskRegCSR, DiskCSRGo | DiskFuncRead}} {
		if err := d.StoreReg(c, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	d.Tick(c, DiskLatency)
	run()
	if c.R[1] != 9 {
		t.Errorf("r1 = %d after the DMA, want 9 (stale decode executed)", c.R[1])
	}
}

func TestDiskMMIOWriteAndErrors(t *testing.T) {
	c := newCPU(t)
	d := NewDisk(0x20000000, 2)
	c.AddDevice(d)
	if err := c.Mem.StoreBytes(0x100, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	st := func(off, v uint32) {
		if err := d.StoreReg(c, off, v); err != nil {
			t.Fatal(err)
		}
	}
	st(DiskRegBlock, 0)
	st(DiskRegAddr, 0x100)
	st(DiskRegCount, 3)
	st(DiskRegCSR, DiskCSRGo|DiskFuncWrite)
	d.Tick(c, DiskLatency)
	if string(d.Image()[:3]) != "xyz" {
		t.Errorf("image = %q", d.Image()[:3])
	}
	// Out-of-range block errors.
	st(DiskRegBlock, 99)
	st(DiskRegCSR, DiskCSRGo|DiskFuncRead)
	d.Tick(c, DiskLatency)
	if v, _ := d.LoadReg(c, DiskRegStat); v != DiskStatErr {
		t.Error("out-of-range transfer did not error")
	}
}

func TestDiskMMIOThroughCPUMemoryPath(t *testing.T) {
	// Device registers are reachable with ordinary memory references —
	// the "typical VAX I/O mechanism" the paper describes.
	c := newCPU(t)
	d := NewDisk(0x20000000, 2)
	c.AddDevice(d)
	if err := c.StoreVirt(0x20000000+DiskRegBlock, 4, 1, vax.Kernel); err != nil {
		t.Fatal(err)
	}
	v, err := c.LoadVirt(0x20000000+DiskRegBlock, 4, vax.Kernel)
	if err != nil || v != 1 {
		t.Errorf("MMIO longword access: %d, %v", v, err)
	}
	if d.RegAccesses != 2 {
		t.Errorf("RegAccesses = %d, want 2", d.RegAccesses)
	}
}
