package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Guest programs for the engine tests: pure compute, KCALL disk I/O
// with a completion handler, virtual-timer interrupts, and an idle
// WAIT loop — the workload mix the scheduler must keep live under both
// engines.

const parComputeSrc = `
start:	incl r6
	cmpl r6, #20000
	blss start
	halt
`

const parIOSrc = `
start:	movl #4, r10
outer:	clrl r11
inner:	movl #3, r0          ; KCALL disk read
	movl r11, r1
	movl #0x5000, r2
	mtpr #0, #201
	movl #4, r0          ; KCALL disk write
	movl r11, r1
	movl #0x5000, r2
	mtpr #0, #201
	incl r11
	cmpl r11, #8
	blss inner
	sobgtr r10, outer
	halt
	.align 4
dskh:	rei
`

const parTimerSrc = `
start:	mtpr #0x41, #24      ; virtual clock: run + interrupt enable
loop:	cmpl r9, #3
	blss loop
	halt
	.align 4
clkh:	mtpr #0xC1, #24      ; acknowledge, keep run+IE
	incl r9
	rei
`

const parWaitSrc = `
start:	movl #3, r10
loop:	wait
	sobgtr r10, loop
	halt
`

// parIdleUntilIRQSrc waits until an externally posted disk interrupt
// flips r7, then halts — the post handshake under test.
const parIdleUntilIRQSrc = `
start:	tstl r7
	bneq done
	wait
	brb start
done:	halt
	.align 4
dskh:	incl r7
	rei
`

// addTestVM creates one pre-mapped VM running src on k.
func addTestVM(t *testing.T, k *VMM, name, src string, vectors map[vax.Vector]string) *VM {
	t.Helper()
	img, prog := guestImage(t, src, vectors)
	vm, err := k.CreateVM(VMConfig{
		Name: name, MemBytes: gMemSize, Image: img,
		StartPC:   prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.SPs[vax.Kernel] = gKSP
	vm.ISP = gISP
	return vm
}

// mixedFleet builds the standard 4-VM mixed workload on a fresh VMM.
func mixedFleet(t *testing.T, cfg Config) (*VMM, []*VM) {
	t.Helper()
	k := New(16<<20, cfg)
	vms := []*VM{
		addTestVM(t, k, "compute", parComputeSrc, nil),
		addTestVM(t, k, "io", parIOSrc, map[vax.Vector]string{vax.VecDisk: "dskh"}),
		addTestVM(t, k, "timer", parTimerSrc, map[vax.Vector]string{vax.VecClock: "clkh"}),
		addTestVM(t, k, "waiter", parWaitSrc, nil),
	}
	return k, vms
}

func assertAllHaltedNormally(t *testing.T, vms []*VM) {
	t.Helper()
	for _, vm := range vms {
		if h, msg := vm.Halted(); !h {
			t.Errorf("%s did not halt", vm.Name())
		} else if !strings.Contains(msg, "HALT") {
			t.Errorf("%s halted abnormally: %s", vm.Name(), msg)
		}
	}
}

// TestSerialFairnessMixedWorkloads is the serial-engine liveness half:
// compute, I/O, timer and WAIT guests all finish under round robin.
func TestSerialFairnessMixedWorkloads(t *testing.T) {
	k, vms := mixedFleet(t, Config{WaitTimeout: 2})
	k.Run(10_000_000)
	assertAllHaltedNormally(t, vms)
	if vms[3].Stats.Waits != 3 {
		t.Errorf("waiter Waits = %d, want 3", vms[3].Stats.Waits)
	}
}

// TestParallelMixedWorkloadConcurrent runs 4 VMs concurrently through
// compute, disk I/O, virtual-timer interrupts and WAIT, with host-side
// console and mailbox traffic in flight — the race-detector workout
// for the sharded engine.
func TestParallelMixedWorkloadConcurrent(t *testing.T) {
	k, vms := mixedFleet(t, Config{WaitTimeout: 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Host-side traffic against running VMs: console feeds and
		// reads, plus external interrupt posts into the mailbox.
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, vm := range vms {
				vm.FeedConsole("x")
				_ = vm.ConsoleOutput()
			}
			vms[1].PostIRQ(vax.IPLDisk, vax.VecDisk) // io VM has a disk handler
			time.Sleep(100 * time.Microsecond)
		}
	}()

	steps := k.RunParallel(4, 10_000_000)
	close(stop)
	wg.Wait()

	assertAllHaltedNormally(t, vms)
	if steps == 0 {
		t.Error("parallel run reported no steps")
	}
	pr := k.LastParallelRun()
	if pr.VMs != 4 || pr.Workers != 4 {
		t.Errorf("LastParallelRun = %+v, want 4 VMs on 4 workers", pr)
	}
	if pr.Instrs == 0 {
		t.Error("no guest instructions accounted")
	}
}

// TestParallelFairnessFewerWorkers runs 6 VMs on 2 workers: the
// semaphore quantum rotation must let every VM finish.
func TestParallelFairnessFewerWorkers(t *testing.T) {
	k := New(24<<20, Config{WaitTimeout: 2})
	var vms []*VM
	for i := 0; i < 3; i++ {
		vms = append(vms, addTestVM(t, k, "", parComputeSrc, nil))
		vms = append(vms, addTestVM(t, k, "", parWaitSrc, nil))
	}
	k.RunParallel(2, 10_000_000)
	assertAllHaltedNormally(t, vms)
	if pr := k.LastParallelRun(); pr.Workers != 2 || pr.VMs != 6 {
		t.Errorf("LastParallelRun = %+v, want 6 VMs on 2 workers", pr)
	}
}

// TestAllWaitingIdleWakeSerial: every VM WAITs with nothing pending;
// the serial machine idles to the timeout and all of them finish.
func TestAllWaitingIdleWakeSerial(t *testing.T) {
	k := New(16<<20, Config{WaitTimeout: 2})
	vms := []*VM{
		addTestVM(t, k, "", parWaitSrc, nil),
		addTestVM(t, k, "", parWaitSrc, nil),
		addTestVM(t, k, "", parWaitSrc, nil),
	}
	k.Run(10_000_000)
	assertAllHaltedNormally(t, vms)
}

// TestAllWaitingIdleWakeParallel: the same all-idle fleet under the
// parallel engine, one VM per worker. Each worker's serial engine
// idles its share to the WAIT timeout, so every VM finishes with no
// other worker's help.
func TestAllWaitingIdleWakeParallel(t *testing.T) {
	k := New(16<<20, Config{WaitTimeout: 2})
	vms := []*VM{
		addTestVM(t, k, "", parWaitSrc, nil),
		addTestVM(t, k, "", parWaitSrc, nil),
		addTestVM(t, k, "", parWaitSrc, nil),
	}
	k.RunParallel(3, 10_000_000)
	assertAllHaltedNormally(t, vms)
}

// TestExternalPostIRQWakesParkedWorker: a guest that WAITs until an
// interrupt arrives leaves its worker idling from timeout to timeout;
// a host-side PostIRQ must reach it through the mailbox, which the
// worker's next clock tick drains, and get the interrupt delivered.
func TestExternalPostIRQWakesParkedWorker(t *testing.T) {
	k := New(16<<20, Config{})
	idle := addTestVM(t, k, "idle", parIdleUntilIRQSrc,
		map[vax.Vector]string{vax.VecDisk: "dskh"})
	compute := addTestVM(t, k, "compute", parComputeSrc, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		k.RunParallel(2, 50_000_000)
	}()
	// Let the idle guest reach its parked WAIT, then post the interrupt.
	time.Sleep(20 * time.Millisecond)
	idle.PostIRQ(vax.IPLDisk, vax.VecDisk)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("parallel run did not finish after external post")
	}
	assertAllHaltedNormally(t, []*VM{idle, compute})
	if idle.Stats.VirtualIRQs == 0 {
		t.Error("idle VM never saw the posted interrupt")
	}
}

// TestParallelMatchesSerialResults: the same compute images produce
// the same guest-visible results under both engines, and under
// RunParallel with a fault injector attached, which must fall back to
// the serial engine rather than run a processor no VM is on.
func TestParallelMatchesSerialResults(t *testing.T) {
	src := `
start:	clrl r6
	movl #1000, r7
loop:	addl2 #7, r6
	sobgtr r7, loop
	movl r6, @#0x80006000
	halt
`
	run := func(workers int, inj *fault.Injector) uint32 {
		k := New(16<<20, Config{})
		if inj != nil {
			k.AttachFaults(inj)
		}
		vms := []*VM{
			addTestVM(t, k, "", src, nil),
			addTestVM(t, k, "", src, nil),
			addTestVM(t, k, "", src, nil),
			addTestVM(t, k, "", src, nil),
		}
		if workers > 1 {
			k.RunParallel(workers, 5_000_000)
		} else {
			k.Run(5_000_000)
		}
		assertAllHaltedNormally(t, vms)
		v := guestLong(t, vms[0], 0x6000)
		for _, vm := range vms[1:] {
			if got := guestLong(t, vm, 0x6000); got != v {
				t.Errorf("workers=%d: VM result %d != %d", workers, got, v)
			}
		}
		return v
	}
	serial := run(1, nil)
	parallel := run(4, nil)
	if serial != parallel {
		t.Errorf("serial result %d != parallel result %d", serial, parallel)
	}
	if injected := run(4, fault.New(1, fault.Config{})); injected != serial {
		t.Errorf("RunParallel with an injector computed %d, the serial engine %d", injected, serial)
	}
	if serial != 7000 {
		t.Errorf("guest computed %d, want 7000", serial)
	}
}

// TestVMMCyclesBucket: with the attribution fix, tick housekeeping and
// world-switch overhead land in the VMM bucket, and the per-VM
// accounts plus the bucket never exceed machine time.
func TestVMMCyclesBucket(t *testing.T) {
	k, vms := mixedFleet(t, Config{WaitTimeout: 2})
	k.Run(10_000_000)
	assertAllHaltedNormally(t, vms)
	if k.VMMCycles() == 0 {
		t.Error("VMMCycles = 0; switch and tick overhead went unattributed")
	}
	var used uint64
	for _, vm := range vms {
		used += vm.CyclesUsed()
	}
	if total := used + k.VMMCycles(); total > k.CPU.Cycles {
		t.Errorf("per-VM cycles %d + VMM bucket %d = %d exceed machine cycles %d",
			used, k.VMMCycles(), total, k.CPU.Cycles)
	}
}

// TestAuditTrailParallel: events recorded by concurrent shards surface
// in the audit view, ordered by (cycle, VM).
func TestAuditTrailParallel(t *testing.T) {
	k := New(16<<20, Config{})
	rec := k.EnableRecorder(1024)
	vms := []*VM{
		addTestVM(t, k, "", parComputeSrc, nil),
		addTestVM(t, k, "", parComputeSrc, nil),
		addTestVM(t, k, "", parWaitSrc, nil),
		addTestVM(t, k, "", parWaitSrc, nil),
	}
	k.RunParallel(4, 10_000_000)
	assertAllHaltedNormally(t, vms)
	trail := rec.Audit()
	if len(trail) == 0 {
		t.Fatal("no audit events recorded")
	}
	seen := map[int32]bool{}
	for i, e := range trail {
		seen[e.VM] = true
		if i > 0 && auditBefore(e, trail[i-1]) {
			t.Fatalf("trail out of order at %d: %v after %v", i, e, trail[i-1])
		}
	}
	for _, vm := range vms {
		if !seen[int32(vm.ID)] {
			t.Errorf("no audit events from vm%d", vm.ID)
		}
	}
}

// auditBefore reports whether a sorts strictly before b in the audit
// view's (cycle, VM) order.
func auditBefore(a, b trace.Event) bool {
	return a.Cycle < b.Cycle || a.Cycle == b.Cycle && a.VM < b.VM
}

// TestSerialEngineStaysDefault: Run never goes parallel, even with
// many VMs (the determinism guarantee); only RunParallel does.
func TestSerialEngineStaysDefault(t *testing.T) {
	k, vms := mixedFleet(t, Config{WaitTimeout: 2})
	k.Run(10_000_000)
	assertAllHaltedNormally(t, vms)
	if pr := k.LastParallelRun(); pr.VMs != 0 {
		t.Errorf("serial config used the parallel engine: %+v", pr)
	}
}

// vmCounts is a VM's simulated outcome: everything the one-engine
// tests require to repeat exactly.
type vmCounts struct {
	HaltCycles, CyclesUsed, Ticks uint64
	Stats                         VMStats
	Regs                          [14]uint32
	PC                            uint32
}

func countsOf(vm *VM) vmCounts {
	return vmCounts{vm.HaltCycles(), vm.CyclesUsed(), vm.Ticks(), vm.Stats, vm.regs, vm.pc}
}

// TestOneWorkerIsSerial: RunParallel on one worker is the serial engine
// on a shard, so it must match Run step for step — the same steps,
// machine and VMM cycles, world switches, and every VM's counts and
// registers.
func TestOneWorkerIsSerial(t *testing.T) {
	kS, serial := mixedFleet(t, Config{WaitTimeout: 2})
	kP, par := mixedFleet(t, Config{WaitTimeout: 2})
	sSteps := kS.Run(0)
	pSteps := kP.RunParallel(1, 0)
	assertAllHaltedNormally(t, serial)
	assertAllHaltedNormally(t, par)
	if sSteps != pSteps {
		t.Errorf("steps: Run %d, RunParallel(1) %d", sSteps, pSteps)
	}
	if kS.CPU.Cycles != kP.CPU.Cycles {
		t.Errorf("machine cycles: Run %d, RunParallel(1) %d", kS.CPU.Cycles, kP.CPU.Cycles)
	}
	if kS.VMMCycles() != kP.VMMCycles() {
		t.Errorf("VMM cycles: Run %d, RunParallel(1) %d", kS.VMMCycles(), kP.VMMCycles())
	}
	if kS.Stats.WorldSwitches != kP.Stats.WorldSwitches {
		t.Errorf("world switches: Run %d, RunParallel(1) %d", kS.Stats.WorldSwitches, kP.Stats.WorldSwitches)
	}
	for i := range serial {
		if s, p := countsOf(serial[i]), countsOf(par[i]); s != p {
			t.Errorf("%s:\n Run            %+v\n RunParallel(1) %+v", serial[i].Name(), s, p)
		}
	}
}

// TestParallelRepeatable: a VM stays on one worker's serial engine for
// the whole run, so with several workers every booted VM's counts
// repeat exactly from run to run, however the workers interleave.
// (Clones are left out on purpose: two clones on different workers
// sharing a frame race to break it, and which one copies depends on
// host timing; only the fleet total is fixed.)
func TestParallelRepeatable(t *testing.T) {
	run := func() []vmCounts {
		k := New(16<<20, Config{WaitTimeout: 2})
		var vms []*VM
		for i := 0; i < 2; i++ {
			vms = append(vms,
				addTestVM(t, k, "compute", parComputeSrc, nil),
				addTestVM(t, k, "io", parIOSrc, map[vax.Vector]string{vax.VecDisk: "dskh"}),
				addTestVM(t, k, "timer", parTimerSrc, map[vax.Vector]string{vax.VecClock: "clkh"}),
				addTestVM(t, k, "waiter", parWaitSrc, nil))
		}
		k.RunParallel(3, 0)
		assertAllHaltedNormally(t, vms)
		counts := make([]vmCounts, len(vms))
		for i, vm := range vms {
			counts[i] = countsOf(vm)
		}
		return counts
	}
	first := run()
	for r := 1; r < 20; r++ {
		for i, c := range run() {
			if c != first[i] {
				t.Fatalf("run %d, VM %d:\n first %+v\n now   %+v", r, i, first[i], c)
			}
		}
	}
}

// parChurnSrc needs four separately delivered disk interrupts before
// it halts, WAITing between each — the repeated wait/post/wake cycle
// the churn test hammers.
const parChurnSrc = `
start:	cmpl r7, #4
	bgeq done
	wait
	brb start
done:	halt
	.align 4
dskh:	incl r7
	rei
`

// TestParkPostWakeChurn is the lost-post stress: 64 VMs that each need
// four externally posted interrupts, on 4 workers, with host
// goroutines hammering PostIRQ the whole time. Every post must reach
// its VM through the mailbox whatever the VM is doing when it lands;
// a single lost post leaves a VM waiting forever and the run never
// finishes (caught by the timeout). Run under -race this also
// exercises the mailbox's cross-goroutine handoff.
func TestParkPostWakeChurn(t *testing.T) {
	const nVMs = 64
	k := New(16<<20, Config{WaitTimeout: 4})
	vms := make([]*VM, nVMs)
	for i := range vms {
		vms[i] = addTestVM(t, k, fmt.Sprintf("churn%d", i), parChurnSrc,
			map[vax.Vector]string{vax.VecDisk: "dskh"})
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		k.RunParallel(4, 0)
	}()
	// Four hammers, one per stripe of the fleet, posting until the run
	// completes. Posting to an already-halted VM is a harmless no-op,
	// so the hammers need no per-VM completion tracking.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := g; i < nVMs; i += 4 {
					vms[i].PostIRQ(vax.IPLDisk, vax.VecDisk)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(g)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("fleet did not finish: a posted interrupt was lost")
	}
	wg.Wait()
	assertAllHaltedNormally(t, vms)
	pr := k.LastParallelRun()
	if pr.VMs != nVMs || pr.Workers != 4 {
		t.Errorf("LastParallelRun = %d VMs on %d workers, want %d on 4", pr.VMs, pr.Workers, nVMs)
	}
}

// selfPatchSrc rewrites its own code once per outer pass: the short
// literal of the ADDL2 at patch becomes the pass counter modulo 64, so
// r5 ends as an order-sensitive hash of which literal ran each time.
// The patch runs a hundred times between rewrites, so a processor
// that cached the patch site before another processor rewrote it
// executes the stale literal before any store of its own could drop
// the decode.
const selfPatchSrc = `
	.space 0x100
start:	movl #1, r5
	movl #2400, r10
outer:	movl #100, r11
inner:	mull2 #3, r5
patch:	addl2 #0, r5
	sobgtr r11, inner
	bicl3 #-64, r10, r0
	movb r0, @#patch+1
	sobgtr r10, outer
	movl r5, @#0x80006000
	halt
`

// TestMigrationDropsStaleDecodes runs a self-patching guest serially,
// then on a worker shard, then serially again. The root's processor
// cached the patch site in the first run and the shard's stores
// rewrote it in the second, so the merge must drop the root's cached
// decodes: the guest must compute the serial engine's result. Run once
// with a booted guest and once with a clone (its template halted, so
// only the clone runs the patch).
func TestMigrationDropsStaleDecodes(t *testing.T) {
	kRef := New(8<<20, Config{})
	ref := addTestVM(t, kRef, "ref", selfPatchSrc, nil)
	runVM(t, kRef, ref, 10_000_000)
	want := guestLong(t, ref, 0x6000)

	for _, clone := range []bool{false, true} {
		t.Run(fmt.Sprintf("clone=%t", clone), func(t *testing.T) {
			k := New(16<<20, Config{})
			p := addTestVM(t, k, "patcher", selfPatchSrc, nil)
			if clone {
				c, err := k.Clone(p, "patcher-clone")
				if err != nil {
					t.Fatal(err)
				}
				k.HaltVM(p, "template")
				p = c
			}
			k.Run(50_000)
			k.RunParallel(2, 50_000)
			k.Run(0)
			assertAllHaltedNormally(t, []*VM{p})
			if got := guestLong(t, p, 0x6000); got != want {
				t.Errorf("%s computed %#x, the serial engine %#x", p.Name(), got, want)
			}
		})
	}
}
