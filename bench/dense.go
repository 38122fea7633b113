package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vax"
)

// fleet_dense_clone: per sample, a fresh monitor gets a 256-VM fleet —
// two booted templates and 254 COW clones, one compute guest per 32 and
// idlers that write one page and WAIT — runs it to completion on the
// M:N engine and destroys every VM. Checks: every VM halts normally,
// and the instruction and COW-break counts repeat across samples.

const (
	fleetVMs = 256
	// fleetWorkers is one: the host gives this workload one or two
	// effective CPUs depending on its neighbours, and a two-worker
	// fleet's time halves or doubles with them (measured), which no
	// bound can absorb. One worker still runs the M:N engine's run
	// queue, dispatch and shard merge.
	fleetWorkers = 1
	// Pre-mapped guest layout: identity SPT, code at S+0x1000, 64 KB.
	gSPT    = 0x0200
	gSPTLen = 64
	gCode   = 0x1000
	gMem    = 64 * 1024
	gKSP    = vax.SystemBase + 0x8000
	// fleetMem fits 256 clones that each privatize a few pages.
	fleetMem = fleetVMs*(48<<10) + (1 << 20)
)

// denseSpec is one generated fleet.
type denseSpec struct {
	Loops   int                // compute guest iterations (±2% of 200k)
	Waits   int                // idler WAIT rounds before HALT
	Compute [fleetVMs / 32]int // fleet slots holding compute guests
}

func denseInputs(seed int64) denseSpec {
	rng := rand.New(rand.NewSource(seed))
	s := denseSpec{Loops: 196_000 + rng.Intn(8_001), Waits: 2 + rng.Intn(3)}
	for i := range s.Compute {
		s.Compute[i] = 32*i + rng.Intn(32)
	}
	return s
}

// guestImage assembles a pre-mapped kernel-mode guest.
func guestImage(src string) ([]byte, uint32, error) {
	prog, err := asm.Assemble(src, vax.SystemBase+gCode)
	if err != nil {
		return nil, 0, err
	}
	img := make([]byte, gMem)
	for i := uint32(0); i < gSPTLen; i++ {
		binary.LittleEndian.PutUint32(img[gSPT+4*i:], uint32(vax.NewPTE(true, vax.ProtUW, true, i)))
	}
	copy(img[gCode:], prog.Code)
	return img, prog.MustSymbol("start"), nil
}

// fleetGuests are the two template images of a spec.
type fleetGuests struct {
	computeImg, idleImg []byte
	computePC, idlePC   uint32
}

func (s denseSpec) guests() (fleetGuests, error) {
	var g fleetGuests
	var err error
	g.computeImg, g.computePC, err = guestImage(fmt.Sprintf(`
start:	clrl r0
	movl #%d, r1
loop:	addl2 #7, r0
	sobgtr r1, loop
	movl r0, @#0x80006000
	halt
`, s.Loops))
	if err != nil {
		return g, err
	}
	g.idleImg, g.idlePC, err = guestImage(fmt.Sprintf(`
start:	movl #1, @#0x80006000 ; privatize one page
	movl #%d, r10
loop:	wait
	sobgtr r10, loop
	halt
`, s.Waits))
	return g, err
}

// fleetSample is what one fleet leaves behind.
type fleetSample struct {
	bringup, run time.Duration
	pr           core.ParallelRunStats
	vmTraps      uint64
	resident     float64 // carved / nominal pages after the run
	hist         [trace.NumLat]trace.Hist
}

func runFleet(t Trace, spec denseSpec, g fleetGuests, cache *mem.Cache) (fleetSample, error) {
	var s fleetSample
	opts := []core.Option{core.WithMemCache(cache)}
	if t.On() {
		opts = append(opts, core.WithRecorder(trace.NewRecorder(64)))
	}
	k := core.New(fleetMem, core.Config{WaitTimeout: 2}, opts...)
	defer k.Release()

	t0 := time.Now()
	isCompute := map[int]bool{}
	for _, c := range spec.Compute {
		isCompute[c] = true
	}
	var computeT, idleT *core.VM
	vms := make([]*core.VM, 0, fleetVMs)
	for slot := 0; slot < fleetVMs; slot++ {
		tmpl, img, pc := &idleT, g.idleImg, g.idlePC
		if isCompute[slot] {
			tmpl, img, pc = &computeT, g.computeImg, g.computePC
		}
		var vm *core.VM
		var err error
		if *tmpl == nil {
			b := t.Begin("core.CreateVM")
			vm, err = k.CreateVM(core.VMConfig{MemBytes: gMem, Image: img, StartPC: pc,
				PreMapped: true, SBR: gSPT, SLR: gSPTLen})
			b.End()
			if err == nil {
				vm.SPs[vax.Kernel] = gKSP
				*tmpl = vm
			}
		} else {
			c := t.Begin("core.Clone")
			vm, err = k.Clone(*tmpl, "")
			c.End()
		}
		if err != nil {
			return s, fmt.Errorf("slot %d: %w", slot, err)
		}
		vms = append(vms, vm)
	}
	s.bringup = time.Since(t0)

	run := t.Begin("core.RunParallel")
	t1 := time.Now()
	k.RunParallel(fleetWorkers, 0)
	s.run = time.Since(t1)
	run.End()
	s.pr = k.LastParallelRun()
	s.resident = ratio(float64(k.CarvedPages()), float64(k.NominalPages()))
	for _, vm := range vms {
		if halted, msg := vm.Halted(); !halted || msg != haltMsg {
			return s, fmt.Errorf("vm %d did not halt normally (halted=%v: %q)", vm.ID, halted, msg)
		}
		s.vmTraps += vm.Stats.VMTraps
	}
	s.hist = recorderHists(k)
	for _, vm := range vms {
		d := t.Begin("core.DestroyVM")
		err := k.DestroyVM(vm)
		d.End()
		if err != nil {
			return s, err
		}
	}
	if n := len(k.VMs()); n != 0 {
		return s, fmt.Errorf("%d VMs left after destroying the fleet", n)
	}
	return s, nil
}

func runDense(o Options, r *Result, rec *Recorder) error {
	spec := denseInputs(o.Seed)
	cache := mem.NewCache()
	var g fleetGuests
	err := measureSetup(o, r, rec, func(t Trace) error {
		var err error
		if g, err = spec.guests(); err != nil {
			return err
		}
		// One warm-up fleet fills the memory cache and the allocator.
		_, err = runFleet(Trace{}, spec, g, cache)
		return err
	})
	if err != nil {
		return err
	}
	var first *fleetSample
	var traced []fleetSample
	var bringup, mips []float64
	closedLoop(o, r, rec, "fleet", func(_ int, t Trace) error {
		s, err := runFleet(t, spec, g, cache)
		if err != nil {
			return err
		}
		if first == nil {
			first = &s
		} else if s.pr.Instrs != first.pr.Instrs || s.pr.CowBreaks != first.pr.CowBreaks {
			return fmt.Errorf("%d instructions and %d COW breaks, first fleet %d and %d",
				s.pr.Instrs, s.pr.CowBreaks, first.pr.Instrs, first.pr.CowBreaks)
		}
		if t.On() {
			traced = append(traced, s)
		} else {
			bringup = append(bringup, float64(s.bringup)/float64(time.Millisecond))
			mips = append(mips, ratio(float64(s.pr.Instrs)*1000, float64(s.run)))
		}
		return nil
	})
	r.extra("fleet_bringup_ms", "ms", median(bringup), fmt.Sprintf("n=%d", len(bringup)))
	reportMIPS(r, mips)
	if o.Trace && len(traced) > 0 {
		reportDense(r, traced, rec.Spans())
	}
	return nil
}

// reportDense sets the scheduler, COW and processor layers from the
// traced fleets (means per fleet).
func reportDense(r *Result, fleets []fleetSample, spans []Span) {
	var pr core.ParallelRunStats
	var runNs, traps uint64
	var resident float64
	var hist [trace.NumLat]trace.Hist
	for _, s := range fleets {
		p := s.pr
		pr.Instrs += p.Instrs
		pr.Dispatches += p.Dispatches
		pr.CowBreaks += p.CowBreaks
		pr.DecodeHits += p.DecodeHits
		pr.DecodeMisses += p.DecodeMisses
		pr.DecodeInvalidations += p.DecodeInvalidations
		resident += s.resident
		runNs += uint64(s.run)
		traps += s.vmTraps
		for l := range hist {
			hist[l].Add(&s.hist[l])
		}
	}
	n := float64(len(fleets))
	kinstr := float64(pr.Instrs) / 1000
	r.set("core.run_ms", float64(runNs)/n/1e6)
	r.set("core.dispatches", float64(pr.Dispatches)/n)
	r.set("core.cow_breaks", float64(pr.CowBreaks)/n)
	r.set("core.resident_ratio", resident/n)
	r.set("core.vm_traps_per_kinstr", ratio(float64(traps), kinstr))
	r.set("cpu.decode_hit_ratio", ratio(float64(pr.DecodeHits), float64(pr.DecodeHits+pr.DecodeMisses)))
	r.set("cpu.decode_invalidations_per_kinstr", ratio(float64(pr.DecodeInvalidations), kinstr))
	r.setSummary("core.clone_us", durations(spans, "core.Clone", time.Microsecond))
	r.setSummary("core.destroy_us", durations(spans, "core.DestroyVM", time.Microsecond))
	r.set("sim.instructions", float64(fleets[0].pr.Instrs))
	reportSimHists(r, &hist)
}
