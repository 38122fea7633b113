package repro

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/vax"
)

// One benchmark per table and figure in the paper. Each iteration
// regenerates the table/figure/measurement end to end (building guest
// images, booting machines, running workloads), so ns/op is the cost of
// reproducing that piece of the evaluation; the correctness of each
// reproduction is asserted by internal/exp's tests.

func benchExperiment(b *testing.B, id string) {
	spec, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := spec.Run()
		if err != nil {
			b.Fatal(err)
		}
		if r.PaperClaim != "" && !r.Match {
			b.Fatalf("%s: shape does not hold: %s", id, r.Measured)
		}
	}
}

// Table 1: sensitive data touched by unprivileged instructions.
func BenchmarkTable1SensitiveData(b *testing.B) { benchExperiment(b, "T1") }

// Table 2: PROBE versus PROBEVM.
func BenchmarkTable2ProbeVsProbeVM(b *testing.B) { benchExperiment(b, "T2") }

// Table 3: solutions for sensitive data.
func BenchmarkTable3Solutions(b *testing.B) { benchExperiment(b, "T3") }

// Table 4: summary of VAX architecture changes.
func BenchmarkTable4ChangeMatrix(b *testing.B) { benchExperiment(b, "T4") }

// Figure 1: the VAX virtual address space.
func BenchmarkFigure1AddressSpace(b *testing.B) { benchExperiment(b, "F1") }

// Figure 2: VM and VMM shared address space.
func BenchmarkFigure2SharedSpace(b *testing.B) { benchExperiment(b, "F2") }

// Figure 3: ring compression.
func BenchmarkFigure3RingCompression(b *testing.B) { benchExperiment(b, "F3") }

// Section 7.3: the 47-48% mixed workload result.
func BenchmarkE1MixedWorkload(b *testing.B) { benchExperiment(b, "E1") }

// Section 7.2: the ~80% shadow-fill reduction.
func BenchmarkE2ShadowCache(b *testing.B) { benchExperiment(b, "E2") }

// Section 4.3.1: fills per context switch and the prefetch ablation.
func BenchmarkE3FaultsPerSwitch(b *testing.B) { benchExperiment(b, "E3") }

// Section 7.3: MTPR-to-IPL 10-12x emulation cost.
func BenchmarkE4MtprIPL(b *testing.B) { benchExperiment(b, "E4") }

// Section 4.4.3: start-I/O versus emulated memory-mapped I/O.
func BenchmarkE5IOTraps(b *testing.B) { benchExperiment(b, "E5") }

// Section 2/5: the efficiency property.
func BenchmarkE6Efficiency(b *testing.B) { benchExperiment(b, "E6") }

// Section 7.1: ring virtualization schemes.
func BenchmarkE7RingSchemes(b *testing.B) { benchExperiment(b, "E7") }

// Section 4.4.2: the modify fault versus the rejected read-only-shadow
// design.
func BenchmarkE8ModifyFaultAblation(b *testing.B) { benchExperiment(b, "E8") }

// Methodology: conclusions are stable under cost-model perturbation.
func BenchmarkE9CostSensitivity(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10FaultCampaign(b *testing.B)  { benchExperiment(b, "E10") }

// Section 5 extended: recoverable deaths roll back to checkpoints.
func BenchmarkE11RecoveryCampaign(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE3RecorderOverhead prices the flight recorder: each
// iteration runs E3 once with the recorder off and once with it on
// (logs of 1024 events, as VAX_TRACE=1024 selects), and the side that
// runs first alternates. It reports the mean of each side as off-ns/op
// and on-ns/op. Interleaving the two sides inside one process is the
// point: on a shared host, separate processes running the same code
// differ by up to ±20% (CPU placement, memory layout), which swamps a
// few-percent recording cost; within one process those effects hit
// both sides alike. ci.sh's trace-overhead gate takes the median on/off
// ratio over nine such processes.
func BenchmarkE3RecorderOverhead(b *testing.B) {
	spec, ok := exp.ByID("E3")
	if !ok {
		b.Fatal("unknown experiment E3")
	}
	defer func(c int) { exp.RecorderCap = c }(exp.RecorderCap)
	var off, on time.Duration
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2; j++ {
			traced := (i+j)%2 == 1
			exp.RecorderCap = 0
			if traced {
				exp.RecorderCap = 1024
			}
			start := time.Now()
			if _, err := spec.Run(); err != nil {
				b.Fatal(err)
			}
			if traced {
				on += time.Since(start)
			} else {
				off += time.Since(start)
			}
		}
	}
	b.ReportMetric(float64(off.Nanoseconds())/float64(b.N), "off-ns/op")
	b.ReportMetric(float64(on.Nanoseconds())/float64(b.N), "on-ns/op")
}

// throughputProg is the tight guest compute loop of
// BenchmarkInterpreterThroughput: 2003 bound instructions per run.
const throughputProg = `
start:	clrl r0
	movl #1000, r1
loop:	addl2 #7, r0
	sobgtr r1, loop
	halt
`

// newThroughputCPU loads throughputProg on a bare machine and returns
// the processor and the program's start address.
func newThroughputCPU(tb testing.TB) (*cpu.CPU, uint32) {
	tb.Helper()
	prog, err := asm.Assemble(throughputProg, 0x400)
	if err != nil {
		tb.Fatalf("assemble: %v", err)
	}
	m := mem.New(64 * 1024)
	if err := m.StoreBytes(prog.Origin, prog.Code); err != nil {
		tb.Fatal(err)
	}
	c := cpu.New(m, cpu.StandardVAX)
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.SetSP(0x8000)
	return c, prog.MustSymbol("start")
}

// BenchmarkInterpreterThroughput measures the raw execution rate of a
// tight guest compute loop once the decoded-instruction cache is warm.
// It reports guest instructions per second and, via ReportAllocs,
// holds the steady-state hot path to zero allocations per iteration.
func BenchmarkInterpreterThroughput(b *testing.B) {
	c, start := newThroughputCPU(b)
	// Warm-up run: populates the decode cache so the timed iterations
	// measure the hot path.
	c.SetPC(start)
	c.Run(0)
	if !c.Halted {
		b.Fatal("warm-up run did not halt")
	}

	b.ReportAllocs()
	b.ResetTimer()
	before := c.Stats.Instructions
	for i := 0; i < b.N; i++ {
		c.ClearHalt()
		c.SetPC(start)
		c.Run(0)
	}
	b.StopTimer()
	executed := c.Stats.Instructions - before
	if c.R[0] != 7000 {
		b.Fatalf("guest computed %d, want 7000", c.R[0])
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "instr/sec")
}

// Guest layout for the multi-VM scaling benchmark (mirrors the
// internal/core test harness: identity-mapped SPT, code at S+0x1000).
const (
	mvSCB     = 0x0000
	mvSPT     = 0x0200
	mvCode    = 0x1000
	mvSPTLen  = 64
	mvKSP     = 0x80008000
	mvMemSize = 64 * 1024
)

// multiVMImage builds a pre-mapped compute guest: ~200k instructions
// of register arithmetic, then HALT.
func multiVMImage(b *testing.B) ([]byte, uint32) {
	b.Helper()
	prog, err := asm.Assemble(`
start:	clrl r0
	movl #100000, r1
loop:	addl2 #7, r0
	sobgtr r1, loop
	halt
`, vax.SystemBase+mvCode)
	if err != nil {
		b.Fatalf("assemble: %v", err)
	}
	img := make([]byte, mvMemSize)
	for i := uint32(0); i < mvSPTLen; i++ {
		pte := vax.NewPTE(true, vax.ProtUW, true, i)
		binary.LittleEndian.PutUint32(img[mvSPT+4*i:], uint32(pte))
	}
	copy(img[mvCode:], prog.Code)
	return img, prog.MustSymbol("start")
}

// multiVMIdleImage builds a pre-mapped idle guest: three WAITs (each
// riding the VMM's WAIT timeout), then HALT — the shape of a mostly-
// idle timesharing VM, which its worker idles through timeout by
// timeout.
func multiVMIdleImage(b *testing.B) ([]byte, uint32) {
	b.Helper()
	prog, err := asm.Assemble(`
start:	movl #3, r10
loop:	wait
	sobgtr r10, loop
	halt
`, vax.SystemBase+mvCode)
	if err != nil {
		b.Fatalf("assemble: %v", err)
	}
	img := make([]byte, mvMemSize)
	for i := uint32(0); i < mvSPTLen; i++ {
		pte := vax.NewPTE(true, vax.ProtUW, true, i)
		binary.LittleEndian.PutUint32(img[mvSPT+4*i:], uint32(pte))
	}
	copy(img[mvCode:], prog.Code)
	return img, prog.MustSymbol("start")
}

// benchMultiVM boots nVMs guests — the first idlers of them WAIT-loop
// guests, the rest compute guests — and runs them to completion,
// serially (workers <= 1) or on the parallel engine. Construction (the
// monitor and the fleet boot) happens with the timer stopped, so
// instr/sec measures execution, not setup; setup cost is reported
// separately as setup_ms/op.
func benchMultiVM(b *testing.B, nVMs, idlers, workers int) {
	computeImg, computeStart := multiVMImage(b)
	idleImg, idleStart := multiVMIdleImage(b)
	// 64 KB of RAM plus a few dozen shadow pages per VM.
	memBytes := uint32(nVMs)*(128<<10) + (1 << 20)
	var cfg core.Config
	if idlers > 0 {
		cfg.WaitTimeout = 2
	}
	cache := mem.NewCache()
	var instrs uint64
	var setup time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t0 := time.Now()
		k := core.New(memBytes, cfg, core.WithMemCache(cache))
		vms := make([]*core.VM, nVMs)
		for j := range vms {
			img, startPC := computeImg, computeStart
			if j < idlers {
				img, startPC = idleImg, idleStart
			}
			vm, err := k.CreateVM(core.VMConfig{
				MemBytes: mvMemSize, Image: img, StartPC: startPC,
				PreMapped: true, SBR: mvSPT, SLR: mvSPTLen, SCBB: mvSCB,
			})
			if err != nil {
				b.Fatal(err)
			}
			vm.SPs[vax.Kernel] = mvKSP
			vms[j] = vm
		}
		setup += time.Since(t0)
		b.StartTimer()
		if workers > 1 {
			k.RunParallel(workers, 0)
		} else {
			k.Run(0)
		}
		b.StopTimer()
		for _, vm := range vms {
			if halted, _ := vm.Halted(); !halted {
				b.Fatal("VM did not halt")
			}
		}
		if pr := k.LastParallelRun(); pr.VMs > 0 {
			instrs += pr.Instrs
		} else {
			instrs += k.CPU.Stats.Instructions
		}
		k.Release()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/sec")
	b.ReportMetric(setup.Seconds()*1000/float64(b.N), "setup_ms/op")
}

// BenchmarkMultiVMScaling compares aggregate guest throughput of the
// serial round-robin engine against the parallel engine at 1, 2, 4 and
// 8 VMs (one worker per VM), then pushes fleet density: 64, 256 and
// 1024 mostly-idle VMs (one compute guest per 32) on a fixed pool of 8
// workers, each running its eighth of the fleet. The instr/sec
// metric is the number the tentpole is judged by: parallel/8VM should
// deliver at least twice serial/8VM on a host with 8 or more cores.
func BenchmarkMultiVMScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("serial_%dVM", n), func(b *testing.B) {
			benchMultiVM(b, n, 0, 1)
		})
		if n > 1 {
			b.Run(fmt.Sprintf("parallel_%dVM_%dw", n, n), func(b *testing.B) {
				benchMultiVM(b, n, 0, n)
			})
		}
	}
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("density_%dVM_8w", n), func(b *testing.B) {
			busy := n / 32
			benchMultiVM(b, n, n-busy, 8)
		})
	}
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("density_%dVM_8w_clone", n), func(b *testing.B) {
			busy := n / 32
			benchMultiVMClone(b, n, n-busy, 8)
		})
	}
}

// BenchmarkVMClone measures the COW spawn primitive alone: one booted
// source, b.N clones stamped from it. No clone runs, which is exactly
// the warm-spare shape the microsecond cost targets — a clone costs a
// frame-map copy and per-page refcount bumps, with shadow tables
// deferred to first dispatch and memory deferred to first write. Each
// clone is halted and destroyed with the timer stopped, so every
// iteration clones into the same small fleet instead of one that grows
// with b.N.
func BenchmarkVMClone(b *testing.B) {
	img, startPC := multiVMImage(b)
	k := core.New(8<<20, core.Config{})
	defer k.Release()
	src, err := k.CreateVM(core.VMConfig{
		MemBytes: mvMemSize, Image: img, StartPC: startPC,
		PreMapped: true, SBR: mvSPT, SLR: mvSPTLen, SCBB: mvSCB,
	})
	if err != nil {
		b.Fatal(err)
	}
	src.SPs[vax.Kernel] = mvKSP
	// The first clone allocates the frame refcount table and demotes
	// the source's shadow mappings; steady state starts at the second.
	if _, err := k.Clone(src, "warm"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := k.Clone(src, "")
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		k.HaltVM(vm, "bench")
		if err := k.DestroyVM(vm); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// benchMultiVMClone is benchMultiVM's clone-backed twin: the same fleet
// shape, but only two template VMs boot from images and every other VM
// is a COW clone. setup_ms/op is the number to compare against the
// boot-backed density variant (the ≥10× bring-up claim); the monitor is
// deliberately overcommitted, which the run phase must survive.
func benchMultiVMClone(b *testing.B, nVMs, idlers, workers int) {
	if nVMs < 2 || idlers < 1 || idlers >= nVMs {
		b.Fatalf("clone fleet needs both templates: n=%d idlers=%d", nVMs, idlers)
	}
	computeImg, computeStart := multiVMImage(b)
	idleImg, idleStart := multiVMIdleImage(b)
	// Well below the 128 KB/VM of the boot-backed fleet: clones only
	// occupy what they privatize.
	memBytes := uint32(nVMs)*(48<<10) + (1 << 20)
	var cfg core.Config
	if idlers > 0 {
		cfg.WaitTimeout = 2
	}
	cache := mem.NewCache()
	var instrs uint64
	var setup time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t0 := time.Now()
		k := core.New(memBytes, cfg, core.WithMemCache(cache))
		boot := func(img []byte, startPC uint32) *core.VM {
			vm, err := k.CreateVM(core.VMConfig{
				MemBytes: mvMemSize, Image: img, StartPC: startPC,
				PreMapped: true, SBR: mvSPT, SLR: mvSPTLen, SCBB: mvSCB,
			})
			if err != nil {
				b.Fatal(err)
			}
			vm.SPs[vax.Kernel] = mvKSP
			return vm
		}
		idleT := boot(idleImg, idleStart)
		computeT := boot(computeImg, computeStart)
		vms := make([]*core.VM, 0, nVMs)
		vms = append(vms, idleT, computeT)
		for j := 1; j < nVMs; j++ {
			if j == idlers {
				continue // the compute template holds this slot's role
			}
			src := computeT
			if j < idlers {
				src = idleT
			}
			vm, err := k.Clone(src, "")
			if err != nil {
				b.Fatal(err)
			}
			vms = append(vms, vm)
		}
		setup += time.Since(t0)
		b.StartTimer()
		if workers > 1 {
			k.RunParallel(workers, 0)
		} else {
			k.Run(0)
		}
		b.StopTimer()
		for _, vm := range vms {
			if halted, _ := vm.Halted(); !halted {
				b.Fatal("VM did not halt")
			}
		}
		if pr := k.LastParallelRun(); pr.VMs > 0 {
			instrs += pr.Instrs
		} else {
			instrs += k.CPU.Stats.Instructions
		}
		k.Release()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/sec")
	b.ReportMetric(setup.Seconds()*1000/float64(b.N), "setup_ms/op")
}
