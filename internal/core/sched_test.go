package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/vax"
)

// checkSchedLists checks the lists the world switch and the clock tick
// walk against the VM table they stand in for. The live list must be
// the table's non-halted VMs, in table order. The tick list must hold
// every live VM that is waiting or keeps an uptime cell, each once, in
// table order, and nothing that has left the table; it may still hold
// VMs the next tick will drop. Outside a parallel run the worker
// shards' lists are empty.
func checkSchedLists(t *testing.T, k *VMM) {
	t.Helper()
	var live []*VM
	for _, vm := range k.vms {
		if !vm.halted {
			live = append(live, vm)
		}
	}
	if !slices.Equal(k.live, live) {
		t.Errorf("live list %s, want the table's live VMs %s", vmNames(k.live), vmNames(live))
	}
	for i, vm := range k.ticked {
		if !slices.Contains(k.vms, vm) {
			t.Errorf("tick list holds %s, which has left the table", vm.Name())
		}
		if i > 0 && k.ticked[i-1].ID >= vm.ID {
			t.Errorf("tick list %s is not in table order, or repeats a VM", vmNames(k.ticked))
		}
	}
	for _, vm := range live {
		if (vm.waiting || vm.uptime != 0) && !slices.Contains(k.ticked, vm) {
			t.Errorf("%s is live, waiting=%v with uptime cell %#x, but not on the tick list %s",
				vm.Name(), vm.waiting, vm.uptime, vmNames(k.ticked))
		}
	}
	for i, s := range k.workerShards {
		if len(s.vms)+len(s.live)+len(s.ticked) != 0 {
			t.Errorf("worker shard %d keeps VMs after the merge: table %s, live %s, tick %s",
				i, vmNames(s.vms), vmNames(s.live), vmNames(s.ticked))
		}
	}
}

func vmNames(vms []*VM) string {
	names := make([]string, len(vms))
	for i, vm := range vms {
		names[i] = vm.Name()
	}
	return "[" + strings.Join(names, " ") + "]"
}

// Guests for the schedule pin. Each reads its bound from r10, which the
// test presets per VM, so one image per kind serves the whole fleet.
const (
	// schedComputeSrc counts r6 up to r10 one instruction at a time.
	schedComputeSrc = `
start:	incl r6
	cmpl r6, r10
	blss start
	halt
`
	// schedWaitSrc WAITs r10 times, riding the WAIT timeout.
	schedWaitSrc = `
start:	wait
	sobgtr r10, start
	halt
`
	// schedUptimeSrc sets its uptime cell and spins reading it until
	// the machine has ticked r10 times.
	schedUptimeSrc = `
start:	movl #6, r0          ; KCALL SetUptime
	movl #0x6100, r1
	mtpr #0, #201
spin:	cmpl @#0x80006100, r10
	blss spin
	halt
`
	// schedUptimeWaitSrc sets its uptime cell and WAITs until the cell
	// reads r10: a VM that is both waiting and timed.
	schedUptimeWaitSrc = `
start:	movl #6, r0          ; KCALL SetUptime
	movl #0x6100, r1
	mtpr #0, #201
idle:	wait
	cmpl @#0x80006100, r10
	blss idle
	halt
`
)

// schedCell is the VM-physical address of the uptime guests' cell.
const schedCell = 0x6100

// schedFleet builds the pin's monitor: 45 booted VMs cycling through
// the four guest kinds with varied bounds, a serial warm-up that lets
// the first VMs register their uptime cells and start waiting, then
// three clones of VMs 0, 1 and 2. The clones land at live indexes 45,
// 46 and 47, so RunParallel(3) deals each onto its source's worker and
// no two workers race to break one shared frame.
func schedFleet(t *testing.T) (*VMM, []*VM) {
	t.Helper()
	k := New(16<<20, Config{WaitTimeout: 2})
	kinds := []struct {
		src   string
		bound func(i int) uint32
	}{
		{schedUptimeWaitSrc, func(i int) uint32 { return uint32(40 + i) }},
		{schedWaitSrc, func(i int) uint32 { return uint32(2 + i%5) }},
		{schedUptimeSrc, func(i int) uint32 { return uint32(30 + 2*i) }},
		{schedComputeSrc, func(i int) uint32 { return uint32(1500 + 97*i) }},
	}
	imgs := make([][]byte, len(kinds))
	starts := make([]uint32, len(kinds))
	for j, kd := range kinds {
		img, prog := guestImage(t, kd.src, nil)
		imgs[j], starts[j] = img, prog.MustSymbol("start")
	}
	var vms []*VM
	for i := 0; i < 45; i++ {
		j := i % len(kinds)
		vm, err := k.CreateVM(VMConfig{
			Name: fmt.Sprintf("vm%02d", i), MemBytes: gMemSize, Image: imgs[j],
			StartPC: starts[j], PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
		})
		if err != nil {
			t.Fatal(err)
		}
		vm.SPs[vax.Kernel] = gKSP
		vm.ISP = gISP
		vm.regs[10] = kinds[j].bound(i)
		vms = append(vms, vm)
	}
	k.Run(3000)
	for _, vm := range vms {
		if h, msg := vm.Halted(); h {
			t.Fatalf("%s halted during the warm-up: %s", vm.Name(), msg)
		}
	}
	if vms[0].uptime == 0 || vms[2].uptime == 0 {
		t.Fatal("the warm-up did not reach the uptime guests' KCALLs")
	}
	for i := 0; i < 3; i++ {
		c, err := k.Clone(vms[i], fmt.Sprintf("clone%d", i))
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, c)
	}
	return k, vms
}

// schedOutcome is what the pin compares: the monitor's world switches
// and ticks, and a digest of one row per VM (halt cycle, cycles used,
// ticks, WAITs, uptime cell), with the rows kept for the failure report.
type schedOutcome struct {
	switches, ticks uint64
	digest          uint64
	rows            []string
}

func schedOutcomeOf(t *testing.T, k *VMM, vms []*VM) schedOutcome {
	t.Helper()
	o := schedOutcome{switches: k.Stats.WorldSwitches, ticks: k.Stats.ClockTicks}
	h := fnv.New64a()
	for _, vm := range vms {
		cell := uint32(0)
		if vm.uptime != 0 {
			cell = guestLong(t, vm, schedCell)
		}
		row := fmt.Sprintf("%s halt=%d used=%d ticks=%d waits=%d cell=%d",
			vm.Name(), vm.HaltCycles(), vm.CyclesUsed(), vm.Ticks(), vm.Stats.Waits, cell)
		o.rows = append(o.rows, row)
		fmt.Fprintln(h, row)
	}
	o.digest = h.Sum64()
	return o
}

// TestSchedulePinned pins the scheduler's decisions on a 48-VM monitor
// of compute guests, WAITing idlers, uptime-cell guests and clones under
// Run, RunParallel(1) and RunParallel(3): the world switches, the clock
// ticks, and every VM's halt cycle, cycles used, ticks, WAITs and final
// uptime cell. The constants were taken from the scheduler that walked
// the whole VM table at every tick and world switch; the walks over the
// live and tick lists must reproduce them exactly.
func TestSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(k *VMM)
		want schedOutcome
	}{
		{"Run", func(k *VMM) { k.Run(0) }, schedOutcome{switches: 147, ticks: 125, digest: 0xae3e79ed0961479d}},
		{"RunParallel1", func(k *VMM) { k.RunParallel(1, 0) }, schedOutcome{switches: 148, ticks: 125, digest: 0x9565d6ceb91605d9}},
		{"RunParallel3", func(k *VMM) { k.RunParallel(3, 0) }, schedOutcome{switches: 212, ticks: 114, digest: 0xec12a6847d239656}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, vms := schedFleet(t)
			checkSchedLists(t, k)
			tc.run(k)
			assertAllHaltedNormally(t, vms)
			checkSchedLists(t, k)
			got := schedOutcomeOf(t, k, vms)
			if got.switches != tc.want.switches || got.ticks != tc.want.ticks || got.digest != tc.want.digest {
				t.Errorf("switches %d, ticks %d, digest %#x; want %d, %d, %#x\n%s",
					got.switches, got.ticks, got.digest,
					tc.want.switches, tc.want.ticks, tc.want.digest, strings.Join(got.rows, "\n"))
			}
		})
	}
}

// stepUntil runs k one processor step at a time until done reports
// true, failing the test after limit steps.
func stepUntil(t *testing.T, k *VMM, limit int, what string, done func() bool) {
	t.Helper()
	for i := 0; !done(); i++ {
		if i == limit {
			t.Fatalf("%s: not reached in %d steps", what, limit)
		}
		k.Run(1)
	}
}

// firstSwitchAfter steps k until the step at which happened reports
// true has been followed by a world switch (in that step or a later
// one), and returns the VM the switch resumed.
func firstSwitchAfter(t *testing.T, k *VMM, what string, happened func() bool) *VM {
	t.Helper()
	switches := k.Stats.WorldSwitches
	stepUntil(t, k, 1_000_000, what, func() bool {
		if !happened() {
			switches = k.Stats.WorldSwitches
			return false
		}
		return k.Stats.WorldSwitches != switches
	})
	return k.Current()
}

// schedLateCellSrc WAITs once before it sets its uptime cell, so every
// VM after it in the table registers a cell before it does.
const schedLateCellSrc = `
start:	wait
	movl #6, r0          ; KCALL SetUptime
	movl #0x6100, r1
	mtpr #0, #201
idle:	wait
	brb idle
`

// TestUptimeHaltMidTick: a clone whose uptime cell lies on a page it
// still shares, on a monitor with no free page, halts during the tick's
// uptime pass: its write must break the page and cannot. The VMs after
// it in the table must still have their cells written at that tick. A
// repeated write would store the same value, so the pass's walk is
// checked by the lists themselves: each VM on the tick list once, in
// table order.
func TestUptimeHaltMidTick(t *testing.T) {
	k := New(16<<20, Config{WaitTimeout: 2})
	src := addTestVM(t, k, "src", schedLateCellSrc, nil)
	c, err := k.Clone(src, "clone")
	if err != nil {
		t.Fatal(err)
	}
	// A console halt keeps the source's frames, so the clone's cell page
	// stays shared, and parks no shadow run in the page pool.
	if _, err := k.ConsoleCommand(src, "HALT"); err != nil {
		t.Fatal(err)
	}
	var after []*VM
	for i := 0; i < 3; i++ {
		vm := addTestVM(t, k, fmt.Sprintf("after%d", i), schedUptimeWaitSrc, nil)
		vm.regs[10] = 1 << 30
		after = append(after, vm)
	}
	// The clone builds its shadow tables at its first dispatch; take
	// every free page once it has them.
	stepUntil(t, k, 100_000, "the clone's first dispatch", func() bool { return c.shadow != nil })
	if _, err := k.allocPagesRaw(k.FreePages()); err != nil {
		t.Fatal(err)
	}
	if k.PagesInUse() != k.CarvedPages() {
		t.Fatal("the page pool holds a run a COW break could take")
	}
	stepUntil(t, k, 1_000_000, "the clone's halt", func() bool { h, _ := c.Halted(); return h })
	if _, msg := c.Halted(); !strings.Contains(msg, "copy-on-write") {
		t.Fatalf("clone halted with %q, want the COW break's out-of-memory halt", msg)
	}
	tick := uint32(k.Stats.ClockTicks)
	for _, vm := range after {
		if vm.uptime == 0 {
			t.Fatalf("%s had not registered its cell before the clone's", vm.Name())
		}
		if got := guestLong(t, vm, schedCell); got != tick {
			t.Errorf("%s's cell reads %d after tick %d", vm.Name(), got, tick)
		}
	}
	if got := guestLong(t, c, schedCell); got != 0 {
		t.Errorf("the halted clone's cell reads %d, want the shared page's 0", got)
	}
	checkSchedLists(t, k)
}

// TestConsoleContinueKeepsTableOrder: a waiting VM halted from the
// console and continued goes back into the scan at its place in the
// table, so the next world switch picks it ahead of the runnable VM
// after it. The pick was taken from the scheduler that scanned the
// whole table.
func TestConsoleContinueKeepsTableOrder(t *testing.T) {
	k := New(16<<20, Config{WaitTimeout: 1000})
	var vms []*VM
	for i, src := range []string{schedWaitSrc, schedWaitSrc, schedComputeSrc, schedWaitSrc} {
		vm := addTestVM(t, k, fmt.Sprintf("vm%d", i), src, nil)
		vm.regs[10] = 1 << 30
		vms = append(vms, vm)
	}
	w1, c2 := vms[1], vms[2]
	stepUntil(t, k, 100_000, "vm1 waiting while vm2 runs", func() bool {
		return w1.waiting && k.Current() == c2
	})
	if _, err := k.ConsoleCommand(w1, "HALT"); err != nil {
		t.Fatal(err)
	}
	// Let a tick find it halted before it continues.
	ticks := k.Stats.ClockTicks
	stepUntil(t, k, 100_000, "a tick", func() bool { return k.Stats.ClockTicks != ticks })
	if _, err := k.ConsoleCommand(w1, "CONTINUE"); err != nil {
		t.Fatal(err)
	}
	checkSchedLists(t, k)
	if got := firstSwitchAfter(t, k, "the next world switch", func() bool { return true }); got != w1 {
		t.Errorf("next world switch resumed %s, want vm1", got.Name())
	}
	checkSchedLists(t, k)
}

// TestRecoveryKeepsTableOrder: a VM the supervisor brings back goes
// back into the scan at its place in the table, so the first world
// switch after its recovery picks it ahead of the runnable VM after it.
// The pick was taken from the scheduler that scanned the whole table.
func TestRecoveryKeepsTableOrder(t *testing.T) {
	// progressSrc prints a character every few hundred cycles, so the
	// watchdog leaves it alone.
	const progressSrc = `
start:	movl #300, r11
inner:	sobgtr r11, inner
	movl #1, r0
	movl #119, r1        ; 'w'
	mtpr #0, #201
	brb start
`
	k := New(16<<20, Config{
		WaitTimeout: 1000, Watchdog: 16,
		CheckpointEvery: 3, CheckpointGenerations: 4,
		Recover: true, RecoverBudget: 8,
	})
	w0 := addTestVM(t, k, "w0", schedWaitSrc, nil)
	w0.regs[10] = 1 << 30
	f1 := addTestVM(t, k, "f1", flagGuest, nil)
	p2 := addTestVM(t, k, "p2", progressSrc, nil)
	got := firstSwitchAfter(t, k, "the first world switch after f1's recovery", func() bool {
		return f1.Stats.Recoveries > 0
	})
	if got != f1 {
		t.Errorf("first world switch after the recovery resumed %s, want f1", got.Name())
	}
	if h, _ := p2.Halted(); h {
		t.Error("p2 halted")
	}
	checkSchedLists(t, k)
}
