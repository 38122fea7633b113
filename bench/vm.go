package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mmu"
	"repro/internal/trace"
	"repro/internal/vax"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// The single-VM workloads: one MiniOS guest per sample on a fresh
// monitor, booted with vmos.BootVM and run to its HALT.

const (
	// vmMemBytes is the monitor's physical memory for one MiniOS VM.
	vmMemBytes = 16 << 20
	// diskBlocks sizes every virtual and bare disk.
	diskBlocks = 64
	// maxSteps bounds a guest that fails to halt.
	maxSteps = 400_000_000
	// haltMsg is how a MiniOS guest ends normally inside a VM.
	haltMsg = "HALT executed in VM kernel mode"
	// resultPhys is the VM-physical address of process 0's first data
	// longword, where workload.Compute publishes its result.
	resultPhys = vmos.UserPhys + vmos.UserCodePages*vax.PageSize
)

// vmSample is what one guest run leaves behind.
type vmSample struct {
	console string
	result  uint32
	cycles  uint64
	cpu     cpu.Stats
	mmu     mmu.Stats
	vm      core.VMStats
	runNs   int64
	hist    [trace.NumLat]trace.Hist
}

// sim is the part of a sample that must repeat exactly.
func (s vmSample) sim() [4]uint64 {
	return [4]uint64{s.cpu.Instructions, s.cycles, s.vm.VMTraps, s.vm.ShadowFills}
}

// runVM boots im in a VM on a fresh monitor and runs it to completion.
// A traced run attaches the flight recorder.
func runVM(t Trace, im *vmos.Image, opts ...core.Option) (vmSample, error) {
	if t.On() {
		opts = append(opts, core.WithRecorder(trace.NewRecorder(0)))
	}
	k := core.New(vmMemBytes, core.Config{}, opts...)
	defer k.Release()
	b := t.Begin("vmos.BootVM")
	vm, err := vmos.BootVM(k, im, diskBlocks)
	b.End()
	if err != nil {
		return vmSample{}, err
	}
	run := t.Begin("core.Run")
	t0 := time.Now()
	k.Run(maxSteps)
	s := vmSample{runNs: time.Since(t0).Nanoseconds()}
	run.End()
	if halted, msg := vm.Halted(); !halted || msg != haltMsg {
		return s, fmt.Errorf("guest did not halt normally (halted=%v: %q)", halted, msg)
	}
	s.console = vm.ConsoleOutput()
	s.result = binary.LittleEndian.Uint32(vm.DumpMemory()[resultPhys:])
	s.cycles = k.CPU.Cycles
	s.cpu = k.CPU.Stats
	s.mmu = k.CPU.MMU.Stats
	s.vm = vm.Stats
	s.hist = recorderHists(k)
	return s, nil
}

// recorderHists merges the flight recorder's per-VM simulated-cycle
// histograms (all empty when k records nothing).
func recorderHists(k *core.VMM) (h [trace.NumLat]trace.Hist) {
	rec := k.Recorder()
	if rec == nil {
		return h
	}
	rec.Sync()
	for _, v := range rec.VMs() {
		for l := range h {
			h[l].Add(v.Hist(trace.Lat(l)))
		}
	}
	return h
}

// reportSimHists sets the sim.<latency>_cycles_p50 metrics.
func reportSimHists(r *Result, h *[trace.NumLat]trace.Hist) {
	for _, l := range simLatencies {
		r.set("sim."+l.String()+"_cycles_p50", float64(h[l].Quantile(0.5)))
	}
}

// bareRun is a reference run of the same guest on a bare standard VAX.
type bareRun struct {
	console      string
	result       uint32
	cycles       uint64
	instructions uint64
	ns           int64
}

func runBare(t Trace, im *vmos.Image, translate bool) (bareRun, error) {
	s := t.Begin("vmos.BootBare")
	defer s.End()
	ma, err := vmos.BootBare(im, cpu.StandardVAX, diskBlocks)
	if err != nil {
		return bareRun{}, err
	}
	defer ma.Release()
	ma.CPU.EnableTranslation(translate)
	t0 := time.Now()
	if !ma.Run(maxSteps) {
		return bareRun{}, fmt.Errorf("bare guest did not halt (pc=%#x)", ma.CPU.PC())
	}
	b := bareRun{ns: time.Since(t0).Nanoseconds(), console: ma.Console.Output(),
		cycles: ma.CPU.Cycles, instructions: ma.CPU.Stats.Instructions}
	b.result, err = ma.CPU.Mem.LoadLong(resultPhys)
	return b, err
}

// build assembles cfg for a target, as a span.
func build(t Trace, cfg vmos.Config, target vmos.Target) (*vmos.Image, error) {
	s := t.Begin("vmos.Build")
	defer s.End()
	cfg.Target = target
	return vmos.Build(cfg)
}

// layerSums accumulates the traced samples' layer counters.
type layerSums struct {
	n                                   int
	cpu                                 cpu.Stats
	mmu                                 mmu.Stats
	vm                                  core.VMStats
	runNs                               int64
	hist                                [trace.NumLat]trace.Hist
	first                               vmSample // sample 0: the sim.* counters
	firstBareCycles, bareNs, bareInstrs uint64
}

func (l *layerSums) add(s vmSample) {
	if l.n == 0 {
		l.first = s
	}
	l.n++
	c, m, v := &l.cpu, &l.mmu, &l.vm
	c.Instructions += s.cpu.Instructions
	c.DecodeHits += s.cpu.DecodeHits
	c.DecodeMisses += s.cpu.DecodeMisses
	c.DecodeInvalidations += s.cpu.DecodeInvalidations
	c.SBSteps += s.cpu.SBSteps
	c.SBBuilds += s.cpu.SBBuilds
	m.TLBHits += s.mmu.TLBHits
	m.TLBMisses += s.mmu.TLBMisses
	v.VMTraps += s.vm.VMTraps
	v.KCALLs += s.vm.KCALLs
	v.ShadowFills += s.vm.ShadowFills
	v.ContextSwitches += s.vm.ContextSwitches
	v.BatchFills += s.vm.BatchFills
	l.runNs += s.runNs
	for i := range l.hist {
		l.hist[i].Add(&s.hist[i])
	}
}

// report sets the cpu, mmu, core.emulate, core.shadow and sim layer
// metrics of a single-VM workload.
func (l *layerSums) report(r *Result) {
	if l.n == 0 {
		return
	}
	c, m, v := l.cpu, l.mmu, l.vm
	kinstr := float64(c.Instructions) / 1000
	r.set("cpu.decode_hit_ratio", ratio(float64(c.DecodeHits), float64(c.DecodeHits+c.DecodeMisses)))
	r.set("cpu.decode_invalidations_per_kinstr", ratio(float64(c.DecodeInvalidations), kinstr))
	r.set("cpu.sb_coverage", ratio(float64(c.SBSteps), float64(c.Instructions)))
	r.set("cpu.sb_builds", float64(c.SBBuilds)/float64(l.n))
	bareNsPerInstr := ratio(float64(l.bareNs), float64(l.bareInstrs))
	r.set("cpu.bare_ns_per_instr", bareNsPerInstr)
	r.set("mmu.tlb_hit_ratio", ratio(float64(m.TLBHits), float64(m.TLBHits+m.TLBMisses)))
	r.set("mmu.tlb_misses_per_kinstr", ratio(float64(m.TLBMisses), kinstr))
	r.set("core.vm_traps_per_kinstr", ratio(float64(v.VMTraps), kinstr))
	r.set("core.kcalls", float64(v.KCALLs)/float64(l.n))
	vmNs := float64(l.runNs)
	r.set("core.vmm_host_share", ratio(vmNs-bareNsPerInstr*float64(c.Instructions), vmNs))
	r.set("core.fills_per_switch", ratio(float64(v.ShadowFills), float64(v.ContextSwitches)))
	r.set("core.batch_fills", float64(v.BatchFills)/float64(l.n))
	r.set("core.run_ms", float64(l.runNs)/float64(l.n)/1e6)
	r.set("sim.cycles", float64(l.first.cycles))
	r.set("sim.instructions", float64(l.first.cpu.Instructions))
	r.set("sim.vm_rel_perf", ratio(float64(l.firstBareCycles), float64(l.first.cycles)))
	reportSimHists(r, &l.hist)
}

// reportVMOS sets the vmos layer from the set-up's builds (only the
// first, cold set-up is traced) and the samples' boots.
func reportVMOS(r *Result, spans []Span) {
	r.set("vmos.build_ms", median(durations(spans, "vmos.Build", time.Millisecond)))
	r.set("vmos.boot_ms", median(durations(spans, "vmos.BootVM", time.Millisecond)))
}

// mips is a sample's guest instructions per host microsecond of Run.
func (s vmSample) mips() float64 {
	return ratio(float64(s.cpu.Instructions)*1000, float64(s.runNs))
}

// reportMIPS prints the median guest MIPS of the untraced samples.
func reportMIPS(r *Result, mips []float64) {
	r.extra("guest_mips", "MIPS", median(mips), fmt.Sprintf("n=%d", len(mips)))
}

// mixConfig is one generated configuration of the Section 7.3 mix.
type mixConfig struct{ Edit, Txns, Blocks int }

// mixInputs draws the four vm_mix configurations. The counts vary by
// ±2% so every seed does about the same work.
func mixInputs(seed int64) [4]mixConfig {
	rng := rand.New(rand.NewSource(seed))
	var cfgs [4]mixConfig
	for i := range cfgs {
		cfgs[i] = mixConfig{Edit: 1960 + rng.Intn(81), Txns: 980 + rng.Intn(41), Blocks: 8 + rng.Intn(diskBlocks-7)}
	}
	return cfgs
}

func (m mixConfig) os() vmos.Config {
	return vmos.Config{Processes: workload.Mix(m.Edit, m.Txns, m.Blocks), Preempt: true}
}

// byteCounts is a console output's length and byte histogram:
// preemption changes the interleaving, not the bytes.
func byteCounts(s string) [256]int {
	var n [256]int
	for i := 0; i < len(s); i++ {
		n[s[i]]++
	}
	return n
}

// vm_mix: the default core.Config (shadow cache off, FillBatch 8,
// serial engine, tier off). Sample i runs configuration (i/2)%4, so a
// traced sample and its untraced neighbour run the same guest. Checks:
// console bytes as on the bare machine, and simulated counters
// identical across samples of a configuration.
func runMix(o Options, r *Result, rec *Recorder) error {
	cfgs := mixInputs(o.Seed)
	var images [len(cfgs)]*vmos.Image
	var bare [len(cfgs)]bareRun
	err := measureSetup(o, r, rec, func(t Trace) error {
		for i, c := range cfgs {
			var err error
			if images[i], err = build(t, c.os(), vmos.TargetVM); err != nil {
				return err
			}
			im, err := build(t, c.os(), vmos.TargetBare)
			if err != nil {
				return err
			}
			if bare[i], err = runBare(t, im, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var seen [len(cfgs)]*[4]uint64
	var sums layerSums
	sums.firstBareCycles = bare[0].cycles
	for _, b := range bare {
		sums.bareNs += uint64(b.ns)
		sums.bareInstrs += b.instructions
	}
	var mips []float64
	closedLoop(o, r, rec, "sample", func(i int, t Trace) error {
		c := (i / 2) % len(cfgs)
		s, err := runVM(t, images[c])
		if err != nil {
			return err
		}
		if byteCounts(s.console) != byteCounts(bare[c].console) {
			return fmt.Errorf("config %d: console %d bytes, bare machine printed %d (or different bytes)",
				c, len(s.console), len(bare[c].console))
		}
		sim := s.sim()
		if seen[c] == nil {
			seen[c] = &sim
		} else if *seen[c] != sim {
			return fmt.Errorf("config %d: simulated counters %v, earlier sample %v", c, sim, *seen[c])
		}
		if t.On() {
			sums.add(s)
		} else {
			mips = append(mips, s.mips())
		}
		return nil
	})
	if o.Trace {
		sums.report(r)
		reportVMOS(r, rec.Spans())
	}
	reportMIPS(r, mips)
	return nil
}

// computeInputs draws the vm_compute_tier loop count (±1% of 3M).
func computeInputs(seed int64) int {
	return 2_970_000 + rand.New(rand.NewSource(seed)).Intn(60_001)
}

// vm_compute_tier: workload.Compute with the superblock tier on. The
// VMM traps only at boot and exit. Check: the result cell and cycle
// count equal a tier-off reference run made during set-up.
func runCompute(o Options, r *Result, rec *Recorder) error {
	cfg := vmos.Config{Processes: []vmos.Process{workload.Compute(computeInputs(o.Seed))}, NoClock: true}
	var im *vmos.Image
	var ref vmSample
	var bare bareRun
	err := measureSetup(o, r, rec, func(t Trace) error {
		var err error
		if im, err = build(t, cfg, vmos.TargetVM); err != nil {
			return err
		}
		if ref, err = runVM(Trace{}, im); err != nil {
			return err
		}
		if !t.On() {
			return nil
		}
		// Traced runs also time the guest on a bare machine with the
		// same tier, for cpu.bare_ns_per_instr and sim.vm_rel_perf.
		bim, err := build(t, cfg, vmos.TargetBare)
		if err != nil {
			return err
		}
		bare, err = runBare(t, bim, true)
		return err
	})
	if err != nil {
		return err
	}
	sums := layerSums{firstBareCycles: bare.cycles, bareNs: uint64(bare.ns), bareInstrs: bare.instructions}
	var mips []float64
	closedLoop(o, r, rec, "sample", func(_ int, t Trace) error {
		s, err := runVM(t, im, core.WithTranslation(true))
		if err != nil {
			return err
		}
		if s.result != ref.result || s.cycles != ref.cycles {
			return fmt.Errorf("tier on: result %#x in %d cycles, tier off: %#x in %d",
				s.result, s.cycles, ref.result, ref.cycles)
		}
		if bare.cycles != 0 && bare.result != s.result {
			return fmt.Errorf("bare machine computed %#x, VM %#x", bare.result, s.result)
		}
		if t.On() {
			sums.add(s)
		} else {
			mips = append(mips, s.mips())
		}
		return nil
	})
	if o.Trace {
		sums.report(r)
		reportVMOS(r, rec.Spans())
	}
	reportMIPS(r, mips)
	return nil
}
