package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/cpu"
	"repro/internal/vax"
)

// The parallel execution engine. The paper's VMM multiplexes many
// guests on one physical VAX with one scheduler; this engine lets the
// reproduction use several host cores while keeping that scheduler. A
// fixed pool of worker goroutines each owns a *shard* — a private VMM
// instance with its own virtual processor (CPU, MMU, TLB, decoded-
// instruction cache), interval clock, I/O scratch buffer and
// statistics — and RunParallel deals the live VMs onto the shards
// round-robin, VM i to worker i mod W. Each worker then runs the serial
// engine (Run) over its share, unchanged. Physical memory and the page
// pool stay shared behind vmmShared, but nothing touches them per step:
// shards allocate from the pool only on slow paths, and each event
// lands in its own VM's log, written only by the worker running that
// VM. Because every VM's frames are its own (shared frames are never
// written: COW breaks privatize them first) and its shadow-table pages
// are carved for it alone, shards never write each other's bytes.
//
// A VM stays on one shard for the whole run, so nothing migrates: its
// cached decodes, WAIT deadline and uptime all live in one clock domain
// that starts at the root's. RunParallel(1, n) is therefore Run(n) step
// for step, and with W workers a booted VM's simulated counts repeat
// from run to run; what varies is only what the shards share, such as
// which of two clones on different shards breaks a shared frame first
// (DESIGN.md §9). With a fault injector attached RunParallel runs Run
// instead, since injection schedules key off the single machine-wide
// tick stream.

// ParallelRunStats summarizes the last RunParallel invocation.
type ParallelRunStats struct {
	Workers int
	VMs     int
	Steps   uint64 // total processor steps across all shards
	Instrs  uint64 // guest instructions executed across all shards
	Cycles  uint64 // machine cycle count at the end (furthest shard)

	// Dispatches counts world switches summed over the shards: each one
	// resumed a VM on its worker's processor.
	Dispatches uint64

	// Worker occupancy: the fewest and most processor steps any single
	// worker ran this run. A wide spread means the fixed shares gave
	// some workers far more work than others.
	MinWorkerSteps uint64
	MaxWorkerSteps uint64

	// Decoded-instruction cache hits, misses and invalidations summed
	// over the worker shards.
	DecodeHits          uint64
	DecodeMisses        uint64
	DecodeInvalidations uint64

	// COW breaks summed over the participating VMs' lifetime counters,
	// read after the merge barrier. Every other per-VM total is in
	// VMStats, exported by each VM's counter source.
	CowBreaks uint64
}

// OccupancyPermille expresses worker occupancy balance as
// MinWorkerSteps/MaxWorkerSteps in parts per thousand: 1000 means every
// worker ran the same number of steps, 0 means at least one worker
// never ran any (or no run has happened).
func (pr ParallelRunStats) OccupancyPermille() uint64 {
	if pr.MaxWorkerSteps == 0 {
		return 0
	}
	return pr.MinWorkerSteps * 1000 / pr.MaxWorkerSteps
}

// LastParallelRun returns statistics for the most recent RunParallel.
func (k *VMM) LastParallelRun() ParallelRunStats { return k.lastParallel }

// newWorkerShard builds a per-worker monitor over the shared physical
// memory and page pool. RunParallel fills its VM table with the
// worker's share. Shards live on the root's workerShards pool and are
// reused across runs.
func (k *VMM) newWorkerShard() *VMM {
	s := newInstance(k.Mem, k.cfg, k.shared, k.rec)
	s.parent = k
	return s
}

// resetShard prepares a (possibly reused) worker shard for a run: the
// processor restarts from the root's cycle and tick counts so machine
// time stays monotonic, per-run statistics restart from zero so the
// merge sums deltas, and the decode cache is flushed — between runs
// the root may have run these VMs serially or recycled their pages, so
// nothing cached from a previous run can be trusted.
func (k *VMM) resetShard(s *VMM) {
	c := s.CPU
	if c.Halted {
		c.ClearHalt()
	}
	c.SetWaiting(false)
	c.FlushDecodeCache()
	c.Stats = cpu.Stats{}
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.Cycles = k.CPU.Cycles
	s.Stats = Stats{ClockTicks: k.Stats.ClockTicks}
	s.vmmCycles = 0
	s.switchStart = 0
	s.cur = -1
	s.rec = k.rec
	// The root's config may have moved since the shard was built
	// (SetCheckpointPolicy, SetRecovery, SetWatchdog); shards carry a
	// copy, so refresh it per run.
	s.cfg = k.cfg
}

// mergeShard folds a finished shard's statistics back into the root.
// Monotonic machine-wide clocks (cycles, ticks) take the furthest
// shard; event counters sum (resetShard zeroed them, so these are this
// run's deltas).
func (k *VMM) mergeShard(s *VMM) {
	k.Stats.VMMEntries += s.Stats.VMMEntries
	k.Stats.WorldSwitches += s.Stats.WorldSwitches
	k.Stats.VirtualIRQs += s.Stats.VirtualIRQs
	k.Stats.ReflectedTraps += s.Stats.ReflectedTraps
	k.Stats.ShadowPoolHits += s.Stats.ShadowPoolHits
	k.Stats.ShadowPoolMisses += s.Stats.ShadowPoolMisses
	if s.Stats.ClockTicks > k.Stats.ClockTicks {
		k.Stats.ClockTicks = s.Stats.ClockTicks
	}
	if s.CPU.Cycles > k.CPU.Cycles {
		k.CPU.Cycles = s.CPU.Cycles
	}
	k.vmmCycles += s.vmmCycles
}

// RunParallel executes every live VM on a pool of workers: VM i of the
// live VMs runs on worker i mod workers, which runs the serial engine
// over its share until every VM in it halts or the worker has run
// maxSteps processor steps (0 = no bound: run until all halt — beware
// VMs that idle forever). It returns the total steps executed across
// all shards. workers < 1 selects one per host CPU, and no more
// workers start than there are live VMs. On a shard, or with a fault
// injector attached, it runs the serial engine (Run) instead, with
// maxSteps bounding the machine.
func (k *VMM) RunParallel(workers int, maxSteps uint64) uint64 {
	if k.parent != nil || k.faults != nil {
		return k.Run(maxSteps)
	}
	if cur := k.Current(); cur != nil {
		k.suspend(cur)
	}
	var live []*VM
	for _, vm := range k.vms {
		if !vm.halted {
			live = append(live, vm)
		}
	}
	if len(live) == 0 {
		return 0
	}
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > len(live) {
		workers = len(live)
	}
	for len(k.workerShards) < workers {
		k.workerShards = append(k.workerShards, k.newWorkerShard())
	}
	shards := k.workerShards[:workers]
	for _, s := range shards {
		k.resetShard(s)
	}
	for i, vm := range live {
		s := shards[i%workers]
		s.vms = append(s.vms, vm)
		vm.k = s
	}

	steps := make([]uint64, workers)
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The label attributes a CPU profile's samples to workers.
			pprof.Do(context.Background(), pprof.Labels("worker", strconv.Itoa(i)),
				func(context.Context) { steps[i] = s.Run(maxSteps) })
		}()
	}
	wg.Wait()

	// The wg.Wait above is the merge barrier: every worker goroutine is
	// done, so shard statistics, per-VM state and the event logs are
	// all quiescent, and readable from here on.
	pr := ParallelRunStats{Workers: workers, VMs: len(live), MinWorkerSteps: steps[0]}
	for i, s := range shards {
		if cur := s.Current(); cur != nil {
			s.suspend(cur) // out of steps: save its registers for the root
		}
		pr.Steps += steps[i]
		pr.MinWorkerSteps = min(pr.MinWorkerSteps, steps[i])
		pr.MaxWorkerSteps = max(pr.MaxWorkerSteps, steps[i])
		cs := &s.CPU.Stats
		pr.Instrs += cs.Instructions
		pr.DecodeHits += cs.DecodeHits
		pr.DecodeMisses += cs.DecodeMisses
		pr.DecodeInvalidations += cs.DecodeInvalidations
		pr.Dispatches += s.Stats.WorldSwitches
		k.mergeShard(s)
		clear(s.vms)
		s.vms = s.vms[:0]
	}
	for _, vm := range live {
		vm.k = k
		pr.CowBreaks += vm.Stats.COWBreaks
	}
	// The VMs stored into their own pages through the shards'
	// processors, so decodes the root cached before this run may be
	// stale.
	k.CPU.FlushDecodeCache()
	pr.Cycles = k.CPU.Cycles
	k.lastParallel = pr
	return pr.Steps
}
