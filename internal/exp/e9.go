package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// E9CostSensitivity is a methodological check rather than a paper
// claim: the simulator substitutes a calibrated cost model for real
// VAX-8800 hardware (DESIGN.md §2), so this experiment sweeps every VMM
// emulation-path cost from half to double the calibrated value and
// verifies the *qualitative* results survive — the VM stays
// substantially slower than bare metal on the mixed workload, the
// efficiency property stays intact, and ring compression keeps beating
// the trap-all scheme.
func E9CostSensitivity() (*Result, error) {
	r := &Result{
		ID:    "E9",
		Title: "Cost-model sensitivity: conclusions vs calibration",
		Headers: []string{"VMM cost scale", "Mixed VM/bare", "Compute VM/bare",
			"Compression/trap-all cycles"},
	}
	// Cooperative scheduling keeps the trap-all x2-cost case out of a
	// preemption livelock (every instruction trapping while the clock
	// preempts every few instructions makes no forward progress).
	mix := vmos.Config{Processes: workload.Mix(10, 5, 16)}
	compute := vmos.Config{Processes: []vmos.Process{workload.Compute(20000)}, NoClock: true}

	// One machine at a time: each is released as soon as its cycles
	// are read, so the sweep never holds more than one monitor.
	bareMix, err := bareOSCycles(mix)
	if err != nil {
		return nil, err
	}
	bareCompute, err := bareOSCycles(compute)
	if err != nil {
		return nil, err
	}

	ok := true
	var ratios []float64
	for _, scale := range []int{50, 100, 200} {
		vmMix, err := vmOSCycles(core.Config{ShadowCacheSlots: 4, CostScalePercent: scale}, mix)
		if err != nil {
			return nil, err
		}
		vmCompute, err := vmOSCycles(core.Config{CostScalePercent: scale}, compute)
		if err != nil {
			return nil, err
		}
		vmTrap, err := vmOSCycles(core.Config{Scheme: core.TrapAll,
			ShadowCacheSlots: 4, CostScalePercent: scale}, mix)
		if err != nil {
			return nil, err
		}
		mixRatio := float64(bareMix) / float64(vmMix)
		compRatio := float64(bareCompute) / float64(vmCompute)
		schemeRatio := float64(vmTrap) / float64(vmMix)
		ratios = append(ratios, mixRatio)
		r.addRow(fmt.Sprintf("%d%%", scale),
			fmt.Sprintf("%.2f", mixRatio),
			fmt.Sprintf("%.3f", compRatio),
			fmt.Sprintf("trap-all takes %.1fx", schemeRatio))
		// The qualitative conclusions at every calibration:
		if mixRatio >= 0.85 { // the VM must pay a substantial tax
			ok = false
		}
		if compRatio < 0.95 { // efficiency property must not depend on costs
			ok = false
		}
		if schemeRatio < 1.5 { // ring compression must keep winning
			ok = false
		}
	}
	// The ratio must respond monotonically to the scale (sanity that the
	// knob actually works).
	if !(ratios[0] > ratios[1] && ratios[1] > ratios[2]) {
		ok = false
		r.addNote("warning: VM/bare ratio did not fall as VMM costs rose")
	}
	r.PaperClaim = "the reproduction's ratios derive from a cost model; its qualitative findings must not (DESIGN.md §2)"
	r.Measured = fmt.Sprintf("mixed-workload ratio %.2f / %.2f / %.2f at 50/100/200%% cost scale; efficiency and scheme ordering stable",
		ratios[0], ratios[1], ratios[2])
	r.Match = ok
	return r, nil
}

// bareOSCycles runs cfg on a bare machine and releases it, returning
// the cycles it took.
func bareOSCycles(cfg vmos.Config) (uint64, error) {
	ma, err := runBareOS(cfg)
	if err != nil {
		return 0, err
	}
	defer ma.Release()
	return ma.CPU.Cycles, nil
}

// vmOSCycles runs cfg in a VM and releases the monitor, returning the
// cycles it took.
func vmOSCycles(kcfg core.Config, cfg vmos.Config) (uint64, error) {
	k, _, _, err := runVMOS(kcfg, cfg)
	if err != nil {
		return 0, err
	}
	defer k.Release()
	return k.CPU.Cycles, nil
}
