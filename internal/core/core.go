// Package core implements the paper's primary contribution: a virtual
// machine monitor for the modified VAX architecture, in the style of the
// VAX security kernel (Hall & Robinson, ISCA 1991).
//
// The VMM attaches to the simulated processor's exception dispatch —
// exactly where the paper's VMM owns the real machine's kernel-mode SCB
// vectors — and implements:
//
//   - execution ring compression (Section 4.2): CHM, REI and the
//     privileged sensitive instructions are emulated out of the
//     VM-emulation trap, with the VM's modes held in VMPSL;
//   - memory ring compression with shadow page tables (Section 4.3):
//     null-PTE defaults, on-demand fills that compress protection
//     codes, optional multi-process shadow-table caching (Section 7.2)
//     and optional fill prefetching (the rejected experiment of
//     Section 4.3.1);
//   - the modify fault (Section 4.4.2);
//   - virtual I/O by KCALL start-I/O or, as a baseline, by emulated
//     memory-mapped registers (Section 4.4.3);
//   - virtual interrupts, a virtual interval timer with VMM-maintained
//     uptime, the WAIT idle handshake, and scheduling of multiple VMs
//     (Section 5).
//
// Every emulation path charges cycles to the machine from the cost
// model in internal/cpu/costs.go, so experiments measure the ratio of
// direct execution to trap-and-emulate work the paper reports on.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vax"
)

// RingScheme selects the ring virtualization strategy (Section 7.1).
type RingScheme int

const (
	// RingCompression is the paper's scheme: virtual kernel and
	// executive both map to real executive; user and supervisor map to
	// themselves.
	RingCompression RingScheme = iota
	// TrapAll is Goldberg's first scheme: every instruction executed in
	// the VM's most privileged mode traps to the VMM for emulation.
	TrapAll
	// SeparateAddressSpace is the rejected alternative of Section 7.1
	// in which the VMM runs in its own address space: ring compression
	// plus an address-space switch (and TLB invalidation) on every VMM
	// entry and exit.
	SeparateAddressSpace
)

func (s RingScheme) String() string {
	switch s {
	case TrapAll:
		return "trap-all (Goldberg scheme 1)"
	case SeparateAddressSpace:
		return "separate address space"
	}
	return "ring compression"
}

const (
	// clockPeriod is the real interval-timer period in cycles: one tick.
	clockPeriod = 5000
	// timeSlice is the VM scheduling quantum in ticks.
	timeSlice = 4
)

// Config tunes the VMM. The zero value is the paper's design: ring
// compression, shadow PTEs filled on demand one per fault (Section
// 4.3.1), the modify fault and KCALL start-I/O. The multi-process
// shadow-table cache of Section 7.2 is opt-in (ShadowCacheSlots).
type Config struct {
	Scheme RingScheme

	// ShadowCacheSlots is the number of per-process shadow page tables
	// kept per VM (Section 7.2). 0 or 1 means no caching: a single
	// table cleared on every address-space change.
	ShadowCacheSlots int

	// PrefetchGroup is the number of consecutive shadow PTEs filled per
	// fault (Section 4.3.1's rejected experiment). 0 or 1 means pure
	// on-demand fill.
	PrefetchGroup int

	// MMIOEmulatedIO makes virtual disks appear as memory-mapped
	// controllers whose every register reference traps for emulation,
	// instead of the KCALL start-I/O interface (Section 4.4.3).
	MMIOEmulatedIO bool

	// ReadOnlyShadow selects the modify-fault alternative the paper
	// considered and rejected (Section 4.4.2): instead of the modify
	// fault, unmodified pages get write-denying shadow protection; the
	// first write takes an access violation the VMM upgrades, and
	// PROBEW must trap to the VMM whenever the shadow denies a write.
	ReadOnlyShadow bool

	// CostScalePercent scales every VMM emulation-path cost (100 = the
	// calibrated model). The sensitivity experiment sweeps it to show
	// the paper's qualitative results do not hinge on calibration.
	CostScalePercent int

	// WaitTimeout is the WAIT handshake timeout in ticks (Section 5:
	// "WAIT times out after some seconds").
	WaitTimeout uint64

	// Watchdog is the per-VM progress budget: a VM that runs this many
	// ticks of its own CPU time without a progress event (WAIT, CHM,
	// completed I/O, context switch) is halted so its neighbors keep
	// the processor. 0 disables the watchdog.
	Watchdog uint64

	// SelfCheckInterval runs the shadow-table self-check pass over
	// every VM each n real ticks. 0 disables the periodic scrub
	// (SelfCheck can still be called explicitly).
	SelfCheckInterval uint64

	// CheckpointEvery takes a periodic checkpoint of the running VM
	// every n ticks of its own virtual clock (n × clockPeriod guest
	// cycles), quiesced at an instruction boundary, into an in-memory
	// ring of CheckpointGenerations generations per VM. 0 disables
	// periodic checkpointing; the disabled path costs one comparison
	// per tick and no allocation. A checkpoint is skipped while the VM
	// has made no progress event since its last one, so a stalling
	// guest cannot flood its ring with stall-state generations.
	CheckpointEvery uint64

	// CheckpointGenerations is the per-VM checkpoint ring depth. 0
	// selects the default of 4 when CheckpointEvery is set.
	CheckpointGenerations int

	// Recover arms the supervisor: a VM that dies from a watchdog trip
	// or a handler-less virtual machine check is rolled back to its
	// newest valid checkpoint generation instead of staying dead,
	// falling back a generation when one fails validation, and
	// escalating to a permanent halt after RecoverBudget recoveries.
	Recover bool

	// RecoverBudget bounds recoveries per VM (0 selects the default of
	// 8 when Recover is set).
	RecoverBudget int
}

func (cfg Config) withDefaults() Config {
	if cfg.ShadowCacheSlots < 1 {
		cfg.ShadowCacheSlots = 1
	}
	if cfg.PrefetchGroup < 1 {
		cfg.PrefetchGroup = 1
	}
	if cfg.WaitTimeout == 0 {
		cfg.WaitTimeout = 16
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointGenerations == 0 {
		cfg.CheckpointGenerations = 4
	}
	if cfg.Recover && cfg.RecoverBudget == 0 {
		cfg.RecoverBudget = 8
	}
	return cfg
}

// Stats counts VMM-level events for the experiment harness.
type Stats struct {
	VMMEntries     uint64
	WorldSwitches  uint64
	VirtualIRQs    uint64
	ClockTicks     uint64
	ReflectedTraps uint64 // exceptions forwarded into a VM

	// Shadow page-table frame pool traffic: runs recycled from a
	// halted VM's tables versus runs carved fresh from the bump
	// allocator (which never reclaims on its own).
	ShadowPoolHits   uint64
	ShadowPoolMisses uint64
}

// vmmShared is the state genuinely shared between a root VMM and the
// per-worker shards of a parallel run. Everything else a VMM holds is
// goroutine-confined: either per-VM (shadow tables, statistics, cycle
// accounting), per-worker (CPU, MMU, TLB, decode cache) or owned by
// whichever engine is running. The page pool sits behind a mutex
// because every instance, root or shard, allocates from it directly;
// it does so only on slow paths (building shadow tables, a COW break,
// a VM halting), never per step. Events need no shared state at all:
// each lands in its own VM's log, stamped with the shard's cycle count.
type vmmShared struct {
	mu       sync.Mutex // guards nextPage and pageRuns (cold paths)
	nextPage uint32     // physical page bump allocator

	// pageRuns is the free list of recycled page runs, keyed by run
	// length in pages: the bump allocator never reclaims, so the runs
	// backing a halted VM's shadow tables are parked here and reused
	// by the next newShadowSpace of the same geometry.
	pageRuns map[uint32][]uint32

	// refs is the per-frame reference-count table behind COW cloning,
	// nil until the first Clone (machines that never clone pay nothing).
	// The pointer is written once, under mu, while no run is in flight;
	// shards read it without locking — the parallel engine's goroutine
	// start orders the store before any shard load. The counters inside
	// are atomics (see mem.PageRefs).
	refs *mem.PageRefs
}

// VMM is the virtual machine monitor.
type VMM struct {
	CPU   *cpu.CPU
	Mem   *mem.Memory
	Clock *dev.Clock

	cfg Config
	vms []*VM // every VM of the monitor, in ID order
	cur *VM   // the VM owning the processor, nil = none

	// live and ticked are the walks the world switch and the clock tick
	// take instead of the VM table, so a halted or idle VM costs them
	// nothing. Both are in table order. live holds the VMs that have not
	// halted: halt and unhalt are the only writers of vm.halted, and
	// they keep it. ticked holds the live VMs the tick has work for,
	// those waiting or keeping an uptime cell: a VM joins where it starts
	// waiting or gets a cell (tickJoin), and leaves at the tick that
	// finds it halted or neither. Both start in listBuf, so a monitor of
	// up to four VMs grows no backing array.
	live    []*VM
	ticked  []*VM
	listBuf [2][4]*VM

	// nextID is the monotonic VM ID counter. IDs used to be the VM's
	// index in vms, which DestroyVM would recycle; with the counter a
	// destroyed VM's ID is never reissued (while nothing is destroyed
	// the numbering is identical to the old scheme).
	nextID int

	shared *vmmShared
	parent *VMM // non-nil on a per-worker shard of a parallel run

	// workerShards is the root's pool of per-worker shard VMMs, built
	// lazily by RunParallel and reused across runs so repeated parallel
	// sections do not reconstruct CPUs (and their decode caches).
	workerShards []*VMM

	rec    *trace.Recorder // flight recorder, nil = disabled
	faults *fault.Injector // nil = no fault injection
	ioBuf  []byte          // scratch page for KCALL disk transfers

	// vmmCycles is the VMM housekeeping bucket: cycles spent on world
	// switches and tick-wide work (uptime maintenance, wake scans,
	// self-checks, the watchdog) that belong to no VM. switchStart
	// marks the cycle count at the last suspend so resume can bank the
	// between-VMs window here instead of letting it fall on a guest.
	vmmCycles   uint64
	switchStart uint64

	lastParallel ParallelRunStats

	Stats Stats
}

// New builds a VMM over a fresh modified-VAX machine with the given
// physical memory size, then applies the options to it in order. The
// configuration must pass Validate — a bad combination is a programmer
// error and panics rather than limping into a run.
func New(memBytes uint32, cfg Config, opts ...Option) *VMM {
	if err := cfg.Validate(); err != nil {
		panic("core.New: " + err.Error())
	}
	// page 0 reserved for the (unused) real SCB
	shared := &vmmShared{nextPage: 1, pageRuns: make(map[uint32][]uint32)}
	k := newInstance(mem.New(memBytes), cfg.withDefaults(), shared, nil)
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// newInstance builds one VMM instance over physical memory m and the
// shared page pool: the root monitor (New) or a worker shard
// (newWorkerShard). Its processor, interval clock and I/O scratch page
// are its own, and the processor is wired to the monitor here for
// both, so a shard's processor cannot drift from the root's.
func newInstance(m *mem.Memory, cfg Config, shared *vmmShared, rec *trace.Recorder) *VMM {
	c := cpu.New(m, cpu.ModifiedVAX)
	k := &VMM{
		CPU:    c,
		Mem:    m,
		Clock:  dev.NewClock(),
		cfg:    cfg,
		rec:    rec,
		shared: shared,
		ioBuf:  make([]byte, vax.PageSize),
	}
	k.live, k.ticked = k.listBuf[0][:0], k.listBuf[1][:0]
	c.Sink = k
	c.AddDevice(k.Clock)
	c.TrapAllInVM = cfg.Scheme == TrapAll
	c.ProbeWTrapOnDeny = cfg.ReadOnlyShadow
	k.Clock.Interval(clockPeriod)
	// The VMM parks the processor in kernel mode; VMs run with PSL<VM>.
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	return k
}

// Config returns the VMM's effective configuration.
func (k *VMM) Config() Config { return k.cfg }

// Recorder returns the attached flight recorder (nil when disabled).
func (k *VMM) Recorder() *trace.Recorder { return k.rec }

// EnableRecorder attaches a flight recorder whose per-VM logs keep the
// newest logCap events, after construction (the monitor's way to turn
// tracing on at run time, and vaxvm's to turn on the audit trail), and
// registers every existing VM with it. Call only while no run is in
// flight; a no-op if a recorder is already attached.
func (k *VMM) EnableRecorder(logCap int) *trace.Recorder {
	if k.rec == nil {
		k.rec = trace.NewRecorder(logCap)
		for _, vm := range k.vms {
			vm.rec = k.rec.VM(vm.ID, vm.name)
		}
	}
	return k.rec
}

// event records a cold event on the VM's log, stamped with the machine
// cycle count and the VM's PC; a no-op when the VM has no recorder.
// Call sites that format a detail do so behind their own vm.rec check,
// so a VM without a recorder formats nothing.
func (k *VMM) event(vm *VM, kind trace.Kind, arg uint32, detail string) {
	if vm.rec != nil {
		vm.rec.RecordDetail(kind, k.CPU.Cycles, k.guestPC(vm), arg, detail)
	}
}

// guestPC returns the VM's program counter: the processor's while the
// VM owns it, the saved copy otherwise.
func (k *VMM) guestPC(vm *VM) uint32 {
	if k.Current() == vm {
		return k.CPU.PC()
	}
	return vm.pc
}

// VMs returns the created virtual machines.
func (k *VMM) VMs() []*VM { return k.vms }

// Current returns the VM owning the processor, or nil.
func (k *VMM) Current() *VM { return k.cur }

// ErrOutOfMemory is the monitor's one out-of-memory refusal: every
// failed page allocation wraps it, so callers test for it with
// errors.Is.
var ErrOutOfMemory = errors.New("vmm: out of physical memory")

// allocPages carves n contiguous physical pages out of real memory,
// zeroed.
func (k *VMM) allocPages(n uint32) (uint32, error) {
	p, err := k.allocPagesRaw(n)
	if err != nil {
		return 0, err
	}
	return p, k.zeroPages(p, n)
}

// allocPagesRaw carves exactly n page frames from the bump allocator
// without zeroing them. Callers that fully initialize the run (shadow-
// table construction, COW page copies) skip the memclr; everything
// else goes through allocPages.
func (k *VMM) allocPagesRaw(n uint32) (uint32, error) {
	k.shared.mu.Lock()
	defer k.shared.mu.Unlock()
	if free := k.Mem.Pages() - k.shared.nextPage; n > free {
		return 0, fmt.Errorf("%w (%d pages requested, %d free)", ErrOutOfMemory, n, free)
	}
	p := k.shared.nextPage
	k.shared.nextPage += n
	return p, nil
}

// zeroPages clears n page frames starting at p (allocPages' contract:
// carved pages come back zero regardless of their provenance).
func (k *VMM) zeroPages(p, n uint32) error {
	return k.Mem.ZeroRun(p, n)
}

// allocRun allocates a run of n pages for shadow-table storage,
// preferring a recycled run from the pool over the bump allocator.
// Runs are handed back with stale contents — pooled runs carry the
// previous owner's PTEs and carved runs skip the memclr — so every
// caller must initialize the run (clear-on-reuse restores the null-PTE
// default; COW breaks copy a whole page over it).
func (k *VMM) allocRun(n uint32) (uint32, error) {
	if p, ok := k.takeRun(n); ok {
		k.Stats.ShadowPoolHits++
		return p, nil
	}
	k.Stats.ShadowPoolMisses++
	return k.allocPagesRaw(n)
}

// takeRun takes a recycled run of exactly n pages if one is pooled,
// without touching the shadow-pool statistics — it backs CreateVM's
// reuse of destroyed-VM memory, and the pool is empty on monitors that
// never destroy, so the counters (and allocation behavior) of every
// existing harness stay byte-identical. The run comes back with stale
// contents; the caller zeroes it and drops cached decodes.
func (k *VMM) takeRun(n uint32) (uint32, bool) {
	k.shared.mu.Lock()
	defer k.shared.mu.Unlock()
	runs := k.shared.pageRuns[n]
	if len(runs) == 0 {
		return 0, false
	}
	k.shared.pageRuns[n] = runs[:len(runs)-1]
	return runs[len(runs)-1], true
}

// freeRun parks a page run in the pool for recycling.
func (k *VMM) freeRun(page, n uint32) {
	if n == 0 {
		return
	}
	k.shared.mu.Lock()
	k.shared.pageRuns[n] = append(k.shared.pageRuns[n], page)
	k.shared.mu.Unlock()
}

// Release returns the monitor's physical memory to the backing-store
// pool (mem.Release), zeroing only the extent the bump allocator ever
// handed out — everything the VMM or its VMs wrote lands in carved
// pages (or page 0), so the rest of the buffer is still zero. The
// monitor must not be used afterwards: every memory access fails as a
// bus error. Harness code calls this after reading a finished
// machine's statistics so the next machine reuses the buffer.
func (k *VMM) Release() {
	if k.parent != nil {
		return
	}
	k.shared.mu.Lock()
	dirty := k.shared.nextPage * vax.PageSize
	k.shared.mu.Unlock()
	k.Mem.Release(dirty)
}

// FreePages reports how many physical pages remain unallocated.
func (k *VMM) FreePages() uint32 {
	k.shared.mu.Lock()
	defer k.shared.mu.Unlock()
	return k.Mem.Pages() - k.shared.nextPage
}

// CarvedPages reports the bump allocator's high-water mark: the real
// page frames ever handed out (the allocator never reclaims, so this is
// also the monitor's resident footprint in pages). With COW cloning it
// can sit far below NominalPages — that gap is the overcommit.
func (k *VMM) CarvedPages() uint32 {
	k.shared.mu.Lock()
	defer k.shared.mu.Unlock()
	return k.shared.nextPage
}

// PagesInUse reports the carved pages not parked for reuse: CarvedPages
// minus the recycled-run pool. Unlike FreePages it does not fall when
// the pool grows, so it returns to baseline after destroy even when a
// burst carved a run the pool then kept.
func (k *VMM) PagesInUse() uint32 {
	k.shared.mu.Lock()
	defer k.shared.mu.Unlock()
	var parked uint32
	for n, runs := range k.shared.pageRuns {
		parked += n * uint32(len(runs))
	}
	return k.shared.nextPage - parked
}

// NominalPages sums every VM's configured memory in pages — what the
// fleet would occupy if each clone held private copies of all its
// pages. Clones make this exceed physical memory; CarvedPages is what
// is actually backed.
func (k *VMM) NominalPages() uint32 {
	var n uint32
	for _, vm := range k.vms {
		n += vm.MemSize / vax.PageSize
	}
	return n
}

// cowShared reports whether a real page frame currently backs more than
// one VM. Safe from worker shards: the refs pointer is published before
// any parallel run starts and the counters are atomics.
func (k *VMM) cowShared(frame uint32) bool {
	r := k.shared.refs
	return r != nil && r.Shared(frame)
}

// VMMCycles returns the cycles consumed by VMM housekeeping that is
// attributable to no VM: world-switch windows and tick-wide work done
// on behalf of the whole machine. Per-VM CyclesUsed excludes these, so
// isolation comparisons between VMs stay honest.
func (k *VMM) VMMCycles() uint64 { return k.vmmCycles }

// Run starts (or continues) executing virtual machines on the
// deterministic serial scheduler for at most maxSteps processor steps
// (0 = until everything halts). RunParallel runs it on several workers.
func (k *VMM) Run(maxSteps uint64) uint64 {
	if k.Current() == nil {
		k.scheduleNext()
	}
	if !k.cfg.Recover {
		return k.CPU.Run(maxSteps)
	}
	// With the supervisor armed, a machine halt may mean "every live VM
	// is dead but some are recoverable": recover them and keep going.
	// (Deaths while other VMs stay runnable are recovered by the tick
	// handler without the machine ever halting.)
	total := k.CPU.Run(maxSteps)
	for k.CPU.Halted && (maxSteps == 0 || total < maxSteps) {
		if !k.recoverPending() {
			break
		}
		k.CPU.ClearHalt()
		if k.Current() == nil {
			k.scheduleNext()
		}
		if k.CPU.Halted {
			break
		}
		var budget uint64
		if maxSteps > 0 {
			budget = maxSteps - total
		}
		total += k.CPU.Run(budget)
	}
	return total
}

// compressMode maps a VM access mode to the real mode it executes in
// (Figure 3): virtual kernel shares real executive with virtual
// executive; the outer modes map to themselves.
func compressMode(m vax.Mode) vax.Mode {
	if m == vax.Kernel {
		return vax.Executive
	}
	return m
}

// charge adds VMM emulation-path cycles, scaled by the configured cost
// factor (CostScalePercent). Direct guest execution is never scaled:
// the factor models only how heavy the monitor's software paths are,
// which is what the sensitivity experiment varies.
func (k *VMM) charge(n uint64) {
	scale := uint64(k.cfg.CostScalePercent)
	if scale == 0 {
		scale = 100
	}
	k.CPU.AddCycles(n * scale / 100)
}
