package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// Performance experiments: every run measures machine cycles under the
// documented cost model (internal/cpu/costs.go), comparing the direct-
// execution path against trap-and-emulate paths exactly as the paper's
// evaluation does.

const perfMaxSteps = 400_000_000

// runBareOS boots a MiniOS image on a bare standard VAX and runs it to
// completion, returning cycles and the machine.
func runBareOS(cfg vmos.Config) (*vmos.Machine, error) {
	cfg.Target = vmos.TargetBare
	im, err := vmos.Build(cfg)
	if err != nil {
		return nil, err
	}
	ma, err := vmos.BootBare(im, cpu.StandardVAX, 64)
	if err != nil {
		return nil, err
	}
	seedDisk(ma.Disk.Image())
	if !ma.Run(perfMaxSteps) {
		err := fmt.Errorf("bare MiniOS did not finish (pc=%#x)", ma.CPU.PC())
		ma.Release()
		return nil, err
	}
	return ma, nil
}

// runVMOS boots the same MiniOS configuration inside a VM.
func runVMOS(kcfg core.Config, cfg vmos.Config) (*core.VMM, *core.VM, *vmos.Image, error) {
	if cfg.Target == vmos.TargetBare {
		cfg.Target = vmos.TargetVM
	}
	im, err := vmos.Build(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	k := newVMM(kcfg)
	vm, err := vmos.BootVM(k, im, 64)
	if err == nil {
		seedDisk(vm.Disk().Image())
		k.Run(perfMaxSteps)
		if h, msg := vm.Halted(); !h {
			err = fmt.Errorf("VM MiniOS did not finish (pc=%#x)", k.CPU.PC())
		} else if msg != "HALT executed in VM kernel mode" {
			err = fmt.Errorf("VM MiniOS died: %s", msg)
		}
	}
	if err != nil {
		k.Release()
		return nil, nil, nil, err
	}
	return k, vm, im, nil
}

// annotateLatencies appends flight-recorder latency percentiles to an
// experiment's notes. With the recorder disabled (the default) it adds
// nothing, so the rendered experiment output stays byte-identical
// unless VAX_TRACE or the -trace flag opted tracing in.
func annotateLatencies(r *Result, k *core.VMM) {
	rec := k.Recorder()
	if rec == nil {
		return
	}
	for _, v := range rec.VMs() {
		for l := trace.Lat(0); l < trace.NumLat; l++ {
			h := v.Hist(l)
			if h.Count == 0 {
				continue
			}
			r.addNote("%s %s latency (cycles): n=%d p50=%d p95=%d p99=%d",
				v.Label, l, h.Count, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
}

// seedDisk fills a disk image with recognizable record data.
func seedDisk(img []byte) {
	for i := range img {
		img[i] = byte(i)
	}
}

// E1MixedWorkload reproduces the headline number of Section 7.3: a mix
// of interactive editing and transaction processing, run bare and in a
// VM with the multi-process shadow cache enabled, reporting the ratio.
func E1MixedWorkload() (*Result, error) {
	r := &Result{
		ID:      "E1",
		Title:   "Mixed editing + transaction processing: VM vs bare machine",
		Headers: []string{"Configuration", "Cycles", "Relative"},
	}
	cfg := vmos.Config{Processes: workload.Mix(25, 12, 16), Preempt: true}
	bare, err := runBareOS(cfg)
	if err != nil {
		return nil, err
	}
	k, vm, _, err := runVMOS(core.Config{ShadowCacheSlots: 4}, cfg)
	if err != nil {
		return nil, err
	}
	bc, vc := bare.CPU.Cycles, k.CPU.Cycles
	bare.Release()
	k.Release()
	ratio := float64(bc) / float64(vc)
	r.addRow("bare VAX (standard)", fmt.Sprintf("%d", bc), "1.00")
	r.addRow("virtual VAX (shadow cache on)", fmt.Sprintf("%d", vc), fmt.Sprintf("%.2f", ratio))
	r.addNote("VM trap mix: %d CHM, %d REI, %d MTPR-IPL, %d other MTPR, %d shadow fills, %d KCALLs",
		vm.Stats.CHMs, vm.Stats.REIs, vm.Stats.MTPRIPL, vm.Stats.MTPROther,
		vm.Stats.ShadowFills, vm.Stats.KCALLs)
	r.PaperClaim = "VM performance was 47-48% of the unmodified VAX 8800 (Section 7.3)"
	r.Measured = fmt.Sprintf("VM ran at %.0f%% of the bare machine", ratio*100)
	r.Match = ratio >= 0.40 && ratio <= 0.60
	return r, nil
}

// shadowWorkload is the context-switch-heavy configuration used by E2
// and E3: four processes, each touching its pages then yielding.
func shadowWorkload() vmos.Config {
	procs := make([]vmos.Process, 4)
	for i := range procs {
		procs[i] = workload.PageStress(10, false)
	}
	return vmos.Config{Processes: procs}
}

// E2ShadowCache reproduces Section 7.2: shadow-PTE fill faults with the
// multi-process shadow table cache versus without.
func E2ShadowCache() (*Result, error) {
	r := &Result{
		ID:      "E2",
		Title:   "Multi-process shadow page tables (Section 7.2)",
		Headers: []string{"Shadow tables per VM", "Context switches", "Shadow fills", "Cycles"},
	}
	cfg := shadowWorkload() // four guest processes
	fills := map[int]uint64{}
	for _, slots := range []int{1, 2, 4, 8} {
		k, vm, _, err := runVMOS(core.Config{ShadowCacheSlots: slots}, cfg)
		if err != nil {
			return nil, err
		}
		fills[slots] = vm.Stats.ShadowFills
		label := fmt.Sprintf("%d", slots)
		switch {
		case slots == 1:
			label += " (cache off)"
		case slots < 4:
			label += " (fewer than the 4 processes)"
		case slots == 4:
			label += " (processes fit)"
		}
		r.addRow(label,
			fmt.Sprintf("%d", vm.Stats.ContextSwitches),
			fmt.Sprintf("%d", vm.Stats.ShadowFills),
			fmt.Sprintf("%d", k.CPU.Cycles))
		k.Release()
	}
	if fills[2] <= fills[4] {
		r.addNote("warning: partial cache did not land between the extremes")
	}
	reduction := 1 - float64(fills[4])/float64(fills[1])
	r.PaperClaim = "fill faults dropped by approximately 80% when VM processes fit in the cached shadow tables"
	r.Measured = fmt.Sprintf("fills dropped %.0f%% (%d -> %d)", reduction*100, fills[1], fills[4])
	r.Match = reduction >= 0.70
	return r, nil
}

// E3FaultsPerSwitch reproduces the two Section 4.3.1 observations: the
// average number of shadow fills between context switches (the paper
// saw 17), and the failure of prefetching groups of PTEs per fault.
func E3FaultsPerSwitch() (*Result, error) {
	r := &Result{
		ID:      "E3",
		Title:   "Shadow fills per context switch; prefetch ablation (Section 4.3.1)",
		Headers: []string{"Prefetch group", "Demand fills", "Prefetched fills", "Used/prefetched", "Cycles"},
	}
	// The dense workload (every process touches all of its pages, then
	// yields) gives the paper's fills-per-context-switch figure.
	dense, vmDense, _, err := runVMOS(core.Config{ShadowCacheSlots: 1}, shadowWorkload())
	if err != nil {
		return nil, err
	}
	annotateLatencies(r, dense)
	dense.Release()
	perSwitch := float64(vmDense.Stats.ShadowFills) / float64(vmDense.Stats.ContextSwitches)

	// Sparse touching: each process touches every 4th page, so PTEs
	// prefetched from a fault's neighbourhood are mostly unused before
	// the next context switch clears them.
	procs := make([]vmos.Process, 4)
	for i := range procs {
		procs[i] = workload.PageSparse(10)
	}
	cfg := vmos.Config{Processes: procs}

	base, vmBase, _, err := runVMOS(core.Config{ShadowCacheSlots: 1}, cfg)
	if err != nil {
		return nil, err
	}
	baseCycles := base.CPU.Cycles
	base.Release()
	r.addRow("1 (on demand)", fmt.Sprintf("%d", vmBase.Stats.ShadowFills), "0", "—",
		fmt.Sprintf("%d", baseCycles))

	worse := true
	for _, g := range []int{4, 8, 16} {
		k, vm, _, err := runVMOS(core.Config{ShadowCacheSlots: 1, PrefetchGroup: g}, cfg)
		if err != nil {
			return nil, err
		}
		r.addRow(fmt.Sprintf("%d", g),
			fmt.Sprintf("%d", vm.Stats.ShadowFills),
			fmt.Sprintf("%d", vm.Stats.PrefetchFills),
			fmt.Sprintf("%.2f", float64(vmBase.Stats.ShadowFills-vm.Stats.ShadowFills)/
				maxf(float64(vm.Stats.PrefetchFills), 1)),
			fmt.Sprintf("%d", k.CPU.Cycles))
		if k.CPU.Cycles < baseCycles {
			worse = false
		}
		k.Release()
	}
	r.addNote("dense workload: %d fills over %d context switches = %.1f fills per switch",
		vmDense.Stats.ShadowFills, vmDense.Stats.ContextSwitches, perSwitch)
	r.PaperClaim = "an average of 17 page faults between context switches; prefetching PTE groups cost more than it saved"
	r.Measured = fmt.Sprintf("%.1f fills per switch; every prefetch group size increased total cycles: %t", perSwitch, worse)
	r.Match = perSwitch >= 8 && perSwitch <= 30 && worse
	return r, nil
}

// E4MtprIPL reproduces the MTPR-to-IPL measurement of Section 7.3: the
// VMM's cost of emulating the instruction versus the optimized bare-
// machine path.
func E4MtprIPL() (*Result, error) {
	r := &Result{
		ID:      "E4",
		Title:   "MTPR-to-IPL: emulation vs the optimized hardware path",
		Headers: []string{"Machine", "Cycles for 2000 IPL changes", "Per change", "Ratio"},
	}
	const iters = 1000 // each iteration performs two MTPR-to-IPL
	mk := func() vmos.Config {
		return vmos.Config{KernelPrelude: workload.KernelIPL(iters), NoClock: true}
	}
	calib := func() vmos.Config {
		return vmos.Config{KernelPrelude: workload.KernelNop(iters), NoClock: true}
	}
	bare, err := runBareOS(mk())
	if err != nil {
		return nil, err
	}
	bareNop, err := runBareOS(calib())
	if err != nil {
		return nil, err
	}
	k, _, _, err := runVMOS(core.Config{}, mk())
	if err != nil {
		return nil, err
	}
	kNop, _, _, err := runVMOS(core.Config{}, calib())
	if err != nil {
		return nil, err
	}
	// Subtract the loop skeleton (measured by the same loop around
	// NOPs), then add back the displaced instruction's base issue cost
	// so each side reports the full cost of one MTPR-to-IPL.
	barePer := float64(bare.CPU.Cycles-bareNop.CPU.Cycles)/(2*iters) + cpu.CostBase
	vmPer := float64(k.CPU.Cycles-kNop.CPU.Cycles)/(2*iters) + cpu.CostBase
	bare.Release()
	bareNop.Release()
	k.Release()
	kNop.Release()
	ratio := vmPer / barePer
	r.addRow("bare VAX", fmt.Sprintf("%d", bare.CPU.Cycles-bareNop.CPU.Cycles),
		fmt.Sprintf("%.1f", barePer), "1.0")
	r.addRow("virtual VAX", fmt.Sprintf("%d", k.CPU.Cycles-kNop.CPU.Cycles),
		fmt.Sprintf("%.1f", vmPer), fmt.Sprintf("%.1f", ratio))
	r.PaperClaim = "the VMM's cost of emulating MTPR-to-IPL on the VAX 8800 was ten to twelve times its cost on the bare machine"
	r.Measured = fmt.Sprintf("emulation cost %.1fx the optimized hardware path", ratio)
	r.Match = ratio >= 9 && ratio <= 13
	return r, nil
}

// E5IOTraps reproduces Section 4.4.3: traps per I/O operation with the
// KCALL start-I/O interface versus emulated memory-mapped registers.
func E5IOTraps() (*Result, error) {
	r := &Result{
		ID:      "E5",
		Title:   "Start-I/O (KCALL) versus emulated memory-mapped I/O",
		Headers: []string{"I/O interface", "Disk ops", "I/O traps", "Traps per op", "Cycles"},
	}
	const ops = 60
	procs := []vmos.Process{workload.DiskBound(ops, 16)}

	k1, vm1, im1, err := runVMOS(core.Config{}, vmos.Config{Target: vmos.TargetVM, Processes: procs})
	if err != nil {
		return nil, err
	}
	ioops1 := vmos.ReadVMCell(vm1, im1, "ioops")
	k1.Release() // after the cell read: ReadVMCell dumps VM memory
	// KCALLs include one boot-time uptime registration.
	kcallIO := vm1.Stats.KCALLs - 1
	r.addRow("KCALL start-I/O", fmt.Sprintf("%d", ioops1),
		fmt.Sprintf("%d", kcallIO), fmt.Sprintf("%.1f", float64(kcallIO)/float64(ioops1)),
		fmt.Sprintf("%d", k1.CPU.Cycles))

	k2, vm2, im2, err := runVMOS(core.Config{MMIOEmulatedIO: true},
		vmos.Config{Target: vmos.TargetVMMMIO, Processes: procs})
	if err != nil {
		return nil, err
	}
	ioops2 := vmos.ReadVMCell(vm2, im2, "ioops")
	k2.Release()
	r.addRow("emulated MMIO registers", fmt.Sprintf("%d", ioops2),
		fmt.Sprintf("%d", vm2.Stats.MMIOEmuls),
		fmt.Sprintf("%.1f", float64(vm2.Stats.MMIOEmuls)/float64(ioops2)),
		fmt.Sprintf("%d", k2.CPU.Cycles))

	factor := float64(vm2.Stats.MMIOEmuls) / maxf(float64(kcallIO), 1)
	r.PaperClaim = "an explicit start-I/O instruction significantly reduces the number of traps for I/O (Section 4.4.3)"
	r.Measured = fmt.Sprintf("MMIO emulation took %.1fx the traps of KCALL for the same work", factor)
	r.Match = factor >= 3
	return r, nil
}

// E6Efficiency demonstrates the efficiency property of Section 2: a
// purely unprivileged workload runs in the VM at essentially native
// speed.
func E6Efficiency() (*Result, error) {
	r := &Result{
		ID:      "E6",
		Title:   "Efficiency: unprivileged instructions execute directly",
		Headers: []string{"Machine", "Cycles", "Relative"},
	}
	cfg := vmos.Config{Processes: []vmos.Process{workload.Compute(30000)}, NoClock: true}
	bare, err := runBareOS(cfg)
	if err != nil {
		return nil, err
	}
	k, vm, _, err := runVMOS(core.Config{}, cfg)
	if err != nil {
		return nil, err
	}
	ratio := float64(bare.CPU.Cycles) / float64(k.CPU.Cycles)
	bare.Release()
	k.Release()
	r.addRow("bare VAX", fmt.Sprintf("%d", bare.CPU.Cycles), "1.00")
	r.addRow("virtual VAX", fmt.Sprintf("%d", k.CPU.Cycles), fmt.Sprintf("%.3f", ratio))
	r.addNote("VM-emulation traps during the run: %d (boot and exit only)", vm.Stats.VMTraps)
	r.PaperClaim = "all unprivileged VAX instructions execute directly on the hardware (Section 5)"
	r.Measured = fmt.Sprintf("VM at %.1f%% of native for compute-bound code", ratio*100)
	r.Match = ratio >= 0.95
	return r, nil
}

// E7RingSchemes compares the ring virtualization alternatives of
// Section 7.1 on the mixed workload.
func E7RingSchemes() (*Result, error) {
	r := &Result{
		ID:      "E7",
		Title:   "Ring virtualization schemes (Section 7.1)",
		Headers: []string{"Scheme", "Cycles", "Relative to bare"},
	}
	cfg := vmos.Config{Processes: workload.Mix(10, 5, 16), Preempt: true}
	bare, err := runBareOS(cfg)
	if err != nil {
		return nil, err
	}
	bc := float64(bare.CPU.Cycles)
	bare.Release()
	r.addRow("bare machine", fmt.Sprintf("%d", bare.CPU.Cycles), "1.00")
	ratios := map[core.RingScheme]float64{}
	for _, scheme := range []core.RingScheme{core.RingCompression, core.SeparateAddressSpace, core.TrapAll} {
		k, _, _, err := runVMOS(core.Config{Scheme: scheme, ShadowCacheSlots: 4}, cfg)
		if err != nil {
			return nil, err
		}
		ratios[scheme] = bc / float64(k.CPU.Cycles)
		r.addRow(scheme.String(), fmt.Sprintf("%d", k.CPU.Cycles),
			fmt.Sprintf("%.2f", ratios[scheme]))
		k.Release()
	}
	r.PaperClaim = "trapping all most-privileged-mode instructions is costly (Goldberg scheme 1); a separate VMM address space adds a switch on every VMM entry (rejected alternatives)"
	r.Measured = fmt.Sprintf("compression %.2f > separate space %.2f > trap-all %.2f",
		ratios[core.RingCompression], ratios[core.SeparateAddressSpace], ratios[core.TrapAll])
	r.Match = ratios[core.RingCompression] > ratios[core.SeparateAddressSpace] &&
		ratios[core.SeparateAddressSpace] > ratios[core.TrapAll]
	return r, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
