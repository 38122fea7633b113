package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/vax"
)

// The fault-injection campaign (experiment E10). Three VMs share one
// VMM: a victim that works the disk and takes every injected fault, a
// bystander that computes and prints, and a runaway that spins without
// ever making progress. The isolation invariant under test is the
// paper's fault-containment story (Section 5): the victim absorbs its
// faults as virtual machine checks or retried I/O, the watchdog halts
// only the runaway, and the bystander's output and completion time are
// unaffected — across every seed, with no Go panic and no VMM halt.

// Victim: 8 passes of read+write over 16 disk blocks via KCALL, with
// handlers for the machine check (count in r9 and dismiss), the clock
// (storms land here) and disk completion.
const victimSrc = `
start:	mtpr #0x41, #24      ; virtual clock: run + interrupt enable
	movl #8, r10
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
	cmpl r11, #16
	blss inner
	sobgtr r10, outer
	halt
	.align 4
clkh:	mtpr #0xC1, #24      ; acknowledge, keep run+IE
	rei
	.align 4
dskh:	rei
	.align 4
mckh:	incl r9              ; count machine checks
	movl (sp)+, r7       ; parameter byte count
	addl2 r7, sp         ; discard the parameters
	rei
`

// Bystander: 160 rounds of compute, each ending in a console dot, then
// a bang. Console output, consumed CPU time and halt time are the
// isolation yardsticks; the workload is long enough that the victim's
// bounded fault-handling overhead stays under the 10% wall-clock
// tolerance.
const bystanderSrc = `
start:	movl #160, r10
outer:	movl #600, r11
inner:	sobgtr r11, inner
	movl #1, r0          ; KCALL console put
	movl #46, r1         ; '.'
	mtpr #0, #201
	sobgtr r10, outer
	movl #1, r0
	movl #33, r1         ; '!'
	mtpr #0, #201
	halt
`

// Runaway: spins forever with no progress event — watchdog bait.
const runawaySrc = `
start:	incl r5
	brb start
`

const vmHaltNormal = "HALT executed in VM kernel mode"

// campaignGuests are E10's three VMs: the victim, the bystander and the
// runaway.
var campaignGuests = []guest{
	{"victim", victimSrc, map[vax.Vector]string{
		vax.VecMachineCheck: "mckh",
		vax.VecClock:        "clkh",
		vax.VecDisk:         "dskh",
	}},
	{"bystander", bystanderSrc, nil},
	{"runaway", runawaySrc, nil},
}

// campaignMachine builds the three-VM machine, optionally armed with a
// fault plan, and runs it to completion.
func campaignMachine(inj *fault.Injector) (*core.VMM, []*core.VM, error) {
	return runGuests(core.Config{Watchdog: 48, SelfCheckInterval: 8}, campaignGuests, inj, 8_000_000)
}

// campaignSeedRun runs one seed and returns the violated invariants
// (empty = the seed passed). A Go panic counts as a violation rather
// than killing the campaign.
func campaignSeedRun(seed int64, baseOut string, baseCycles, baseUsed uint64) (inj *fault.Injector, vms []*core.VM, violations []string) {
	defer func() {
		if r := recover(); r != nil {
			violations = append(violations, fmt.Sprintf("Go panic: %v", r))
		}
	}()
	inj = fault.New(seed, fault.Config{
		TargetVM:          0, // the victim
		TransientDiskRate: 0.10,
		TransientBurst:    2,
		PermanentDiskRate: 0.04,
		BusWindows:        2,
		BusWindowTicks:    3,
		BusBase:           0x4000,
		BusSpan:           0x2000,
		BusRangeBytes:     0x400,
		Storms:            1,
		StormTicks:        2,
		PTECorruptions:    3,
		Horizon:           40,
	})
	k, vms, err := campaignMachine(inj)
	if err != nil {
		return inj, vms, []string{err.Error()}
	}
	// Every check below reads Go-side state (halt reasons, console
	// transcripts, counters), so the machine's memory can go back to
	// the pool right away.
	k.Release()
	victim, bystander, runaway := vms[0], vms[1], vms[2]

	bad := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	if h, msg := victim.Halted(); !h || msg != vmHaltNormal {
		bad("victim did not complete normally: halted=%t %q", h, msg)
	}
	if h, msg := bystander.Halted(); !h || msg != vmHaltNormal {
		bad("bystander did not complete normally: halted=%t %q", h, msg)
	}
	if h, msg := runaway.Halted(); !h || !strings.Contains(msg, "watchdog") {
		bad("runaway not watchdog-halted: halted=%t %q", h, msg)
	}
	if runaway.Stats.WatchdogTrips < 1 {
		bad("runaway has no watchdog trip")
	}
	if out := bystander.ConsoleOutput(); out != baseOut {
		bad("bystander console changed: %q vs baseline %q", out, baseOut)
	}
	if c := bystander.HaltCycles(); c > baseCycles+baseCycles/10 {
		bad("bystander finished at cycle %d, beyond 110%% of fault-free %d", c, baseCycles)
	}
	if u := bystander.CyclesUsed(); u > baseUsed+baseUsed/10 {
		bad("bystander consumed %d cycles, beyond 110%% of fault-free %d", u, baseUsed)
	}
	s := inj.Stats
	if victim.Stats.MachineChecks != s.PermanentErrors+s.BusErrors {
		bad("victim machine checks %d != injected permanent %d + bus %d",
			victim.Stats.MachineChecks, s.PermanentErrors, s.BusErrors)
	}
	if victim.Stats.DiskRetries != s.TransientFails {
		bad("victim disk retries %d != injected transient failures %d",
			victim.Stats.DiskRetries, s.TransientFails)
	}
	if victim.Stats.SelfCheckRepairs < s.PTECorruptions {
		bad("victim self-check repairs %d < applied corruptions %d",
			victim.Stats.SelfCheckRepairs, s.PTECorruptions)
	}
	for _, vm := range []*core.VM{bystander, runaway} {
		if vm.Stats.MachineChecks != 0 || vm.Stats.DiskRetries != 0 {
			bad("%s saw injected faults: %d machine checks, %d retries",
				vm.Name(), vm.Stats.MachineChecks, vm.Stats.DiskRetries)
		}
	}
	return inj, vms, violations
}

// DefaultCampaignSeeds is the fixed seed set the CI smoke run uses.
func DefaultCampaignSeeds(n int, base int64) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// FaultCampaign runs the multi-seed fault-injection campaign and
// reports per-seed injection counts and the isolation verdict.
func FaultCampaign(seeds []int64) (*Result, error) {
	r := &Result{
		ID:    "E10",
		Title: "Fault-injection campaign: isolation under injected faults",
		Headers: []string{"seed", "mchecks", "retries", "repairs", "storm",
			"bystander cycles", "verdict"},
		PaperClaim: "one misbehaving VM must never degrade its neighbors (Section 5 fault containment)",
	}

	// Fault-free baseline: what the bystander does when the victim's
	// faults never happen (the run is seed-independent).
	kBase, base, err := campaignMachine(nil)
	if err != nil {
		return nil, err
	}
	kBase.Release()
	if h, msg := base[1].Halted(); !h || msg != vmHaltNormal {
		return nil, fmt.Errorf("baseline bystander did not complete: %q", msg)
	}
	baseOut := base[1].ConsoleOutput()
	baseCycles := base[1].HaltCycles()
	baseUsed := base[1].CyclesUsed()
	r.addNote("baseline: bystander prints %d chars, consumes %d cycles, halts at cycle %d",
		len(baseOut), baseUsed, baseCycles)

	failed := 0
	for _, seed := range seeds {
		inj, vms, violations := campaignSeedRun(seed, baseOut, baseCycles, baseUsed)
		verdict := "pass"
		if len(violations) > 0 {
			verdict = "FAIL"
			failed++
		}
		s := inj.Stats
		cycles := uint64(0)
		if len(vms) == 3 {
			cycles = vms[1].HaltCycles()
		}
		r.addRow(fmt.Sprint(seed),
			fmt.Sprint(s.PermanentErrors+s.BusErrors),
			fmt.Sprint(s.TransientFails),
			fmt.Sprint(s.PTECorruptions),
			fmt.Sprint(s.StormDeliveries),
			fmt.Sprint(cycles),
			verdict)
		for _, v := range violations {
			r.addNote("seed %d: %s", seed, v)
		}
	}
	r.Match = failed == 0
	r.Measured = fmt.Sprintf(
		"%d/%d seeds hold the invariant: faults surface as machine checks or retried I/O, watchdog halts only the runaway, bystander unchanged within 10%%",
		len(seeds)-failed, len(seeds))
	return r, nil
}

// E10FaultCampaign is the registry entry point (8 fixed seeds).
func E10FaultCampaign() (*Result, error) {
	return FaultCampaign(DefaultCampaignSeeds(8, 1))
}
