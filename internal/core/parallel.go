package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vax"
)

// The parallel execution engine. The paper's VMM multiplexes many
// guests on one physical VAX; this engine lets the reproduction use
// many host cores instead, with M:N scheduling: a fixed pool of M
// worker goroutines, each owning a *shard* — a private VMM instance
// with its own virtual processor (CPU, MMU, TLB, decoded-instruction
// cache), interval clock, I/O scratch buffer and statistics — pulls N
// runnable VMs from a work queue. Physical memory and the page pool
// stay shared behind vmmShared, but nothing touches them per step:
// shards allocate from the pool only on slow paths, and each event
// lands in its own VM's log, written only by the worker driving that
// VM. Because every VM's frames are its own (shared frames are never
// written: COW breaks privatize them first) and its shadow-table pages
// are carved for it alone, shards never write each other's bytes, and
// all of the serial emulation machinery runs on a shard unchanged.
//
// A VM is dispatched onto whichever worker dequeues it. Dispatching is
// a world switch on that worker's shard, so the architectural state
// moves cleanly; three pieces of shard-local derived state need care
// on migration and get it at attach/detach time: stale cached decodes
// of the VM's pages are invalidated when the VM arrives on a different
// worker than last time (a "steal"), the WAIT deadline is carried as
// ticks-remaining because shard clocks advance independently, and the
// uptime cell is rebased so the VM's view of time stays monotonic.
// Parked VMs — idle in WAIT with nothing pending — leave the queue
// entirely and cost zero worker time until a post or a fleet-wide idle
// advance requeues them, which is what lets a small pool carry
// thousands of mostly-idle VMs.
//
// The engine is intentionally NOT deterministic: interleaving depends
// on the host scheduler. Experiments and the fault campaign therefore
// use Run, the serial engine; RunParallel itself falls back to it when
// a fault injector is attached, since injection schedules key off the
// single machine-wide tick stream.

// ParallelRunStats summarizes the last RunParallel invocation.
type ParallelRunStats struct {
	Workers int
	VMs     int
	Steps   uint64 // total processor steps across all shards
	Instrs  uint64 // guest instructions executed across all shards
	Cycles  uint64 // machine cycle count at the end (furthest shard)

	// Scheduler counters: queue dispatches, dispatches that moved a VM
	// to a different worker than its last one (migrations, which pay a
	// decode-cache invalidation), parks of idle VMs, external posts
	// that requeued a parked VM, fleet-wide wakes when everything still
	// live was parked, and the deepest the run queue ever got.
	Dispatches    uint64
	Steals        uint64
	Parks         uint64
	Wakes         uint64
	IdleWakes     uint64
	MaxQueueDepth int

	// Worker occupancy: the fewest and most processor steps any single
	// worker ran this run. A wide spread means the queue kept some
	// workers starved while others carried the fleet.
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

const (
	// workerQuantum is how many processor steps a worker runs one VM
	// before considering rotation, so N VMs share M < N workers fairly.
	workerQuantum = 1 << 16
	// parkCheckChunk is the sub-quantum granularity at which a worker
	// checks for halt and parking conditions while inside a quantum.
	parkCheckChunk = 1 << 11
	// parkAfterIdleWaits is how many consecutive WAIT timeouts (with
	// nothing delivered in between) a VM accumulates before its worker
	// parks it off the queue instead of idling virtual time forward.
	parkAfterIdleWaits = 2
)

// Per-VM scheduler states (VM.sched).
const (
	schedIdle    uint32 = iota // not part of a parallel run
	schedQueued                // on the run queue
	schedRunning               // attached to a worker shard
	schedParked                // off the queue, waiting for a post
	schedDone                  // halted or out of budget this run
)

// engine coordinates one RunParallel call: the run queue the workers
// pull from, and the park/finish accounting. The queue is a buffered
// channel with capacity for every live VM; the state machine ensures a
// VM is enqueued at most once, so sends never block (including under
// the mutex). All cold transitions — park, unpark, finish, fleet wake
// — happen under mu, which is what makes the park/post race benign:
// park publishes schedParked and re-checks the mailbox inside the same
// critical section that unpark uses to test for schedParked, so one of
// the two always sees the other.
type engine struct {
	root *VMM
	vms  []*VM
	runq chan *VM

	budget uint64 // per-VM step budget (0 = unbounded)

	qlen     atomic.Int32 // current queue depth
	maxDepth atomic.Int32 // high-water mark of qlen

	mu        sync.Mutex
	remaining int // live VMs not yet done
	parked    int // VMs in schedParked
	wakes     uint64
	idleWakes uint64
}

// push puts a VM on the run queue. Never blocks: capacity covers every
// live VM and the state machine enqueues each at most once.
func (e *engine) push(vm *VM) {
	vm.sched.Store(schedQueued)
	d := e.qlen.Add(1)
	for {
		m := e.maxDepth.Load()
		if d <= m || e.maxDepth.CompareAndSwap(m, d) {
			break
		}
	}
	e.runq <- vm
}

// park moves a running VM off the queue. Returns false if a concurrent
// post already filled the mailbox, in which case the VM went straight
// back on the queue instead (the lost-wakeup window this closes is the
// reason parking is a mutex transition and not an atomic counter
// dance). If this VM was the last one not parked, parking it would
// freeze virtual time on every shard with no one left to generate a
// wake — so the whole fleet is requeued instead, letting all idle VMs
// advance their WAIT timeouts in step.
func (e *engine) park(vm *VM) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	vm.sched.Store(schedParked)
	e.parked++
	if vm.extMask.Load() != 0 {
		e.parked--
		vm.idleWaits = 0
		e.push(vm)
		return false
	}
	if e.parked == e.remaining {
		e.idleWakes++
		e.wakeAllLocked()
	}
	return true
}

// unpark requeues a parked VM after an external post. Called (via
// VM.PostIRQ) from any goroutine.
func (e *engine) unpark(vm *VM) {
	if vm.sched.Load() != schedParked {
		return // cheap pre-check; the decisive one is under the mutex
	}
	e.mu.Lock()
	if vm.sched.Load() == schedParked {
		e.parked--
		e.wakes++
		vm.idleWaits = 0
		e.push(vm)
	}
	e.mu.Unlock()
}

// wakeAllLocked requeues every parked VM (mu held).
func (e *engine) wakeAllLocked() {
	for _, vm := range e.vms {
		if vm.sched.Load() == schedParked {
			e.parked--
			vm.idleWaits = 0
			e.push(vm)
		}
	}
}

// finish retires a VM from the run (halted, or out of budget). The
// last retirement closes the queue, which is what ends the run; and a
// retirement that leaves only parked VMs triggers the fleet-wide idle
// advance just as the last park does.
func (e *engine) finish(vm *VM) {
	e.mu.Lock()
	vm.sched.Store(schedDone)
	e.remaining--
	done := e.remaining == 0
	if !done && e.parked > 0 && e.parked == e.remaining {
		e.idleWakes++
		e.wakeAllLocked()
	}
	e.mu.Unlock()
	if done {
		close(e.runq)
	}
}

// worker is one goroutine of the pool with its shard and its owner-
// confined counters, padded so adjacent workers' counter updates never
// share a cache line.
type worker struct {
	id        int
	shard     *VMM
	ctx       context.Context // pprof label context ("worker" set)
	statsBase cpu.Stats       // shard processor stats at run start (for deltas)

	steps      uint64
	dispatches uint64
	steals     uint64
	parks      uint64
	_          [64]byte
}

// newWorkerShard builds a per-worker monitor over the shared physical
// memory and page pool, with a one-slot VM table that attach fills per
// dispatch. Shards live on the root's workerShards pool and are reused
// across runs.
func (k *VMM) newWorkerShard() *VMM {
	s := newInstance(k.Mem, k.cfg, k.shared, k.rec)
	s.vms = make([]*VM, 1)
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
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.Cycles = k.CPU.Cycles
	s.Stats = Stats{ClockTicks: k.Stats.ClockTicks}
	s.vmmCycles = 0
	s.switchStart = 0
	s.cur = -1
	s.vms[0] = nil
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

// attach dispatches a VM onto a worker's shard. The previous owner
// detached before the VM could be requeued, and queue/mutex handoffs
// order its writes before this read, so the VM's owner-confined state
// arrives consistent.
func (e *engine) attach(w *worker, vm *VM) {
	s := w.shard
	w.dispatches++
	if vm.lastShard != nil && vm.lastShard != s {
		// Migration: this shard may hold decodes of the VM's pages from
		// an earlier tenancy, gone stale through the VM's own writes
		// elsewhere. (A VM's pages change only while it runs — its own
		// stores and DMA both go through its current shard — so a VM
		// that stayed put needs no invalidation.)
		w.steals++
		for _, f := range vm.frames {
			s.CPU.InvalidateDecode(f*vax.PageSize, vax.PageSize)
		}
		if vm.rec != nil {
			vm.rec.Record(trace.EvSchedSteal, s.CPU.Cycles, vm.pc, uint32(w.id))
		}
	}
	vm.sched.Store(schedRunning)
	vm.k = s
	s.vms[0] = vm
	s.cur = -1
	if s.CPU.Halted {
		// The previous tenant halted, which halted the single-VM shard.
		s.CPU.ClearHalt()
	}
	s.CPU.SetWaiting(false)
	// Rebase clock-domain state into this shard's timeline.
	if vm.waiting {
		vm.waitDeadline = s.Stats.ClockTicks + vm.waitRemaining
	}
	vm.tickBias = s.Stats.ClockTicks - vm.uptimeSeen
	pprof.SetGoroutineLabels(pprof.WithLabels(w.ctx, pprof.Labels("vm", vm.name)))
}

// detach suspends a VM off a worker's shard and captures the clock-
// domain state (WAIT ticks remaining, uptime seen) that attach rebases
// on the next shard. After detach the worker must not touch the VM
// outside the engine mutex.
func (e *engine) detach(w *worker, vm *VM) {
	s := w.shard
	if s.Current() == vm {
		s.suspend(vm)
	}
	if vm.waiting {
		vm.waitRemaining = vm.waitDeadline - s.Stats.ClockTicks
	}
	vm.uptimeSeen = s.Stats.ClockTicks - vm.tickBias
	vm.lastShard = s
	pprof.SetGoroutineLabels(w.ctx)
}

// runWorker is one pool goroutine: pull a VM, drive it, repeat until
// the queue closes.
func (e *engine) runWorker(w *worker) {
	w.ctx = pprof.WithLabels(context.Background(), pprof.Labels("worker", strconv.Itoa(w.id)))
	pprof.SetGoroutineLabels(w.ctx)
	defer pprof.SetGoroutineLabels(context.Background())
	for vm := range e.runq {
		e.qlen.Add(-1)
		e.drive(w, vm)
	}
}

// drive runs one dispatched VM in quanta until it halts, runs out of
// budget, parks, or yields to a VM waiting for a worker. When the
// queue is empty the worker keeps its VM (affinity: no world switch,
// no decode-cache migration cost); rotation happens exactly when
// someone is waiting.
func (e *engine) drive(w *worker, vm *VM) {
	s := w.shard
	e.attach(w, vm)
	for {
		q := uint64(workerQuantum)
		if e.budget > 0 && vm.stepsLeft < q {
			q = vm.stepsLeft
		}
		ran := s.runQuantum(vm, q)
		w.steps += ran
		if e.budget > 0 {
			vm.stepsLeft -= ran
		}
		switch {
		case vm.pendingRecover:
			// The VM died recoverably on this shard. The worker is its
			// owner and sits at an instruction boundary — a safe point —
			// so recover on-shard and keep driving; decode invalidation
			// and WAIT rebasing happen against this shard's CPU and
			// clock, which is exactly where the VM resumes.
			if s.tryRecover(vm) {
				if s.CPU.Halted {
					s.CPU.ClearHalt()
				}
				continue
			}
			e.detach(w, vm)
			e.finish(vm)
			return
		case vm.halted || s.CPU.Halted || ran == 0 ||
			(e.budget > 0 && vm.stepsLeft == 0):
			e.detach(w, vm)
			e.finish(vm)
			return
		case s.shouldPark(vm):
			if vm.rec != nil {
				vm.rec.Record(trace.EvSchedPark, s.CPU.Cycles, s.guestPC(vm), 0)
			}
			e.detach(w, vm)
			if e.park(vm) {
				w.parks++
			}
			return
		case e.qlen.Load() > 0:
			e.detach(w, vm)
			e.push(vm)
			return
		}
	}
}

// RunParallel executes every live VM on a fixed pool of workers, until
// each VM halts or has consumed maxStepsPerVM processor steps (0 = no
// bound: run until all halt — beware VMs that idle forever). It
// returns the total steps executed across all shards. On a shard, or
// with a fault injector attached, it runs the serial engine (Run)
// instead, with maxStepsPerVM bounding the machine.
func (k *VMM) RunParallel(workers int, maxStepsPerVM uint64) uint64 {
	if k.parent != nil || k.faults != nil {
		return k.Run(maxStepsPerVM)
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

	eng := &engine{
		root:      k,
		vms:       live,
		runq:      make(chan *VM, len(live)),
		budget:    maxStepsPerVM,
		remaining: len(live),
	}
	for len(k.workerShards) < workers {
		k.workerShards = append(k.workerShards, k.newWorkerShard())
	}
	ws := make([]*worker, workers)
	for i := range ws {
		s := k.workerShards[i]
		k.resetShard(s)
		ws[i] = &worker{id: i, shard: s, statsBase: s.CPU.Stats}
	}
	for _, vm := range live {
		vm.lastShard = nil
		vm.stepsLeft = maxStepsPerVM
		vm.uptimeSeen = k.Stats.ClockTicks - vm.tickBias
		if vm.waiting {
			if vm.waitDeadline > k.Stats.ClockTicks {
				vm.waitRemaining = vm.waitDeadline - k.Stats.ClockTicks
			} else {
				vm.waitRemaining = 0
			}
		}
		vm.eng.Store(eng)
	}
	for _, vm := range live {
		eng.push(vm)
	}

	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			eng.runWorker(w)
		}(w)
	}
	wg.Wait()

	// The wg.Wait above is the merge barrier: every worker goroutine is
	// done, so shard statistics, per-VM state and the event logs are
	// all quiescent, and readable from here on.
	pr := ParallelRunStats{
		Workers:       workers,
		VMs:           len(live),
		Wakes:         eng.wakes,
		IdleWakes:     eng.idleWakes,
		MaxQueueDepth: int(eng.maxDepth.Load()),
	}
	pr.MinWorkerSteps = ws[0].steps
	for _, w := range ws {
		pr.Steps += w.steps
		if w.steps < pr.MinWorkerSteps {
			pr.MinWorkerSteps = w.steps
		}
		if w.steps > pr.MaxWorkerSteps {
			pr.MaxWorkerSteps = w.steps
		}
		cs := &w.shard.CPU.Stats
		pr.Instrs += cs.Instructions - w.statsBase.Instructions
		pr.DecodeHits += cs.DecodeHits - w.statsBase.DecodeHits
		pr.DecodeMisses += cs.DecodeMisses - w.statsBase.DecodeMisses
		pr.DecodeInvalidations += cs.DecodeInvalidations - w.statsBase.DecodeInvalidations
		pr.Dispatches += w.dispatches
		pr.Steals += w.steals
		pr.Parks += w.parks
		k.mergeShard(w.shard)
	}
	for _, vm := range live {
		vm.k = k
		vm.eng.Store(nil)
		vm.sched.Store(schedIdle)
		// Rebase clock-domain state back onto the merged root timeline.
		if vm.waiting {
			vm.waitDeadline = k.Stats.ClockTicks + vm.waitRemaining
		}
		vm.tickBias = k.Stats.ClockTicks - vm.uptimeSeen
		pr.CowBreaks += vm.Stats.COWBreaks
	}
	pr.Cycles = k.CPU.Cycles
	k.lastParallel = pr
	return pr.Steps
}

// runQuantum steps the shard for up to q processor steps, in chunks so
// halts and parking conditions are noticed promptly.
func (s *VMM) runQuantum(vm *VM, q uint64) uint64 {
	var done uint64
	for done < q {
		chunk := uint64(parkCheckChunk)
		if q-done < chunk {
			chunk = q - done
		}
		ran := s.Run(chunk)
		done += ran
		if vm.halted || s.CPU.Halted || ran == 0 || s.shouldPark(vm) {
			break
		}
	}
	return done
}

// shouldPark reports whether the VM is only burning idle cycles: it
// has timed out of WAIT repeatedly with nothing pending and nothing in
// the mailbox. Owner-goroutine only.
func (s *VMM) shouldPark(vm *VM) bool {
	return vm.waiting && vm.idleWaits >= parkAfterIdleWaits &&
		vm.pendingAbove(0) == 0 && vm.extMask.Load() == 0
}
