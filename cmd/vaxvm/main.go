// Command vaxvm runs one or more MiniOS guests under the VAX security
// kernel VMM and reports per-VM and VMM statistics — the virtual-VAX
// counterpart of cmd/vaxsim.
//
// Usage:
//
//	vaxvm [-vms N] [-workload mix|compute|syscall|tp|paging] [-scheme compression|trapall|separate]
//	      [-shadow-slots N] [-prefetch N] [-mmio]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vax"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// The machine is 16 MB for the monitor plus 8 MB per VM, and a PTE
// frame number addresses at most maxMachineMB.
const (
	maxMachineMB = int(vax.MaxPhysBytes >> 20)
	maxVMs       = (maxMachineMB - 16) / 8
)

func buildProcesses(name string) ([]vmos.Process, error) {
	switch name {
	case "mix":
		return workload.Mix(25, 12, 16), nil
	case "compute":
		return []vmos.Process{workload.Compute(5000), workload.Compute(5000)}, nil
	case "syscall":
		return []vmos.Process{workload.Syscall(500)}, nil
	case "tp":
		return []vmos.Process{workload.TP(10, 16), workload.TP(10, 16)}, nil
	case "paging":
		return []vmos.Process{workload.PageStress(10, true), workload.PageStress(10, false)}, nil
	case "calls":
		return []vmos.Process{workload.CallHeavy(50, 8)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	nvms := flag.Int("vms", 2, "number of virtual machines")
	wl := flag.String("workload", "mix", "workload: mix, compute, syscall, tp, paging, calls")
	schemeName := flag.String("scheme", "compression", "ring scheme: compression, trapall, separate")
	slots := flag.Int("shadow-slots", 4, "cached shadow page tables per VM (1 disables the cache)")
	prefetch := flag.Int("prefetch", 1, "shadow PTEs filled per fault")
	mmio := flag.Bool("mmio", false, "emulate memory-mapped I/O instead of KCALL start-I/O")
	preempt := flag.Bool("preempt", true, "preemptive guest scheduling")
	maxSteps := flag.Uint64("max-steps", 1_000_000_000, "step budget")
	audit := flag.Int("audit", 0, "keep each VM's newest N events and print the tail of their audit view")
	table := flag.Bool("table", false, "print per-VM counters as a side-by-side table")
	flag.Parse()

	scheme := core.RingCompression
	switch *schemeName {
	case "compression":
	case "trapall":
		scheme = core.TrapAll
	case "separate":
		scheme = core.SeparateAddressSpace
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *schemeName)
		os.Exit(2)
	}
	if *nvms < 1 {
		fmt.Fprintf(os.Stderr, "-vms must be at least 1, got %d\n", *nvms)
		os.Exit(2)
	}
	if *nvms > maxVMs {
		fmt.Fprintf(os.Stderr, "-vms %d exceeds %d: 16 MB plus 8 MB per VM must fit in the %d MB a PTE frame number addresses\n",
			*nvms, maxVMs, maxMachineMB)
		os.Exit(2)
	}
	cfg := core.Config{
		Scheme:           scheme,
		ShadowCacheSlots: *slots,
		PrefetchGroup:    *prefetch,
		MMIOEmulatedIO:   *mmio,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	procs, err := buildProcesses(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	target := vmos.TargetVM
	if *mmio {
		target = vmos.TargetVMMMIO
	}
	im, err := vmos.Build(vmos.Config{Target: target, Processes: procs, Preempt: *preempt})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	k := core.New(uint32((16+8*uint64(*nvms))<<20), cfg)
	if *audit > 0 {
		k.EnableRecorder(*audit)
	}
	vms := make([]*core.VM, *nvms)
	for i := range vms {
		vm, err := vmos.BootVM(k, im, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for j := range vm.Disk().Image() {
			vm.Disk().Image()[j] = byte(j)
		}
		vms[i] = vm
	}

	k.Run(*maxSteps)

	fmt.Printf("VMM (%s) ran %d MiniOS guest(s)\n\n", k.Config().Scheme, *nvms)
	allDone := true
	for _, vm := range vms {
		h, msg := vm.Halted()
		status := msg
		if !h {
			status = "still running (step budget exhausted)"
			allDone = false
		}
		fmt.Printf("%s: %s\n", vm.Name(), status)
		fmt.Printf("  uptime ticks %d, console %q\n", vm.Ticks(), vm.ConsoleOutput())
		s := vm.Stats
		fmt.Printf("  traps: %d total — %d CHM, %d REI, %d MTPR-IPL, %d MTPR-other, %d MFPR\n",
			s.VMTraps, s.CHMs, s.REIs, s.MTPRIPL, s.MTPROther, s.MFPRs)
		fmt.Printf("  shadow: %d fills (+%d prefetched), %d clears, cache %d hits / %d misses\n",
			s.ShadowFills, s.PrefetchFills, s.ShadowClears, s.CacheHits, s.CacheMisses)
		fmt.Printf("  memory: %d modify faults, %d reflected faults, %d context switches\n",
			s.ModifyFaults, s.ReflectedFaults, s.ContextSwitches)
		fmt.Printf("  i/o: %d KCALLs, %d MMIO emulations, %d virtual interrupts, %d WAITs\n",
			s.KCALLs, s.MMIOEmuls, s.VirtualIRQs, s.Waits)
	}
	fmt.Printf("\nmachine: %d cycles, %d instructions\n", k.CPU.Cycles, k.CPU.Stats.Instructions)
	fmt.Printf("VMM: %d entries, %d world switches, %d clock ticks, %d deliveries\n",
		k.Stats.VMMEntries, k.Stats.WorldSwitches, k.Stats.ClockTicks, k.Stats.ReflectedTraps)

	if *table {
		snaps := make([]trace.Snapshot, len(vms))
		for i, vm := range vms {
			snaps[i] = trace.Capture(vm)
		}
		fmt.Println()
		fmt.Print(trace.Table(snaps...))
	}
	if *audit > 0 {
		trail := k.Recorder().Audit()
		fmt.Printf("\naudit trail (%d events, newest last):\n", len(trail))
		start := 0
		if len(trail) > 20 {
			start = len(trail) - 20
		}
		for _, e := range trail[start:] {
			fmt.Println(" ", e)
		}
	}
	if !allDone {
		os.Exit(1)
	}
}
