package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Virtual machine geometry. The VM's S space is limited to
// VMSLimitPTEs pages (Section 5, "Virtual memory limits": the VMM may
// set a smaller limit than the architectural 1 GB); process P0 spaces
// are limited to ProcTablePTEs pages.
const (
	VMSLimitPTEs  = 4096 // 2 MB of VM S space
	ProcTablePTEs = 2048 // 1 MB of P0 space per process
	P1TablePTEs   = 512  // 256 KB of P1 space

	procSlotPages = ProcTablePTEs * 4 / vax.PageSize // pages per shadow P0 table
	p1TablePages  = P1TablePTEs * 4 / vax.PageSize
)

// VMDiskBase is the VM-physical address of the virtual disk controller
// window under MMIO-emulated I/O (beyond any VM's RAM).
const VMDiskBase uint32 = 0x00F00000

// nullPTE is the default shadow PTE of Section 4.3.1: invalid, but with
// a protection code permitting read and write from all modes, so the
// hardware protection check passes and the reference faults to the VMM
// as translation-not-valid.
var nullPTE = vax.NewPTE(false, vax.ProtUW, false, 0)

// VMStats counts per-VM events used throughout the evaluation.
type VMStats struct {
	VMTraps          uint64 // VM-emulation traps
	CHMs             uint64
	REIs             uint64
	MTPRIPL          uint64
	MTPROther        uint64
	MFPRs            uint64
	ContextSwitches  uint64 // guest address-space changes (LDPCTX / MTPR P0BR)
	ShadowFills      uint64 // demand shadow PTE fills
	PrefetchFills    uint64 // additional PTEs filled by prefetch groups
	ShadowClears     uint64 // shadow tables reset to null PTEs
	CacheHits        uint64 // process shadow table found in cache
	CacheMisses      uint64
	ModifyFaults     uint64
	ROWriteFaults    uint64 // write upgrades under the read-only-shadow scheme
	ReflectedFaults  uint64 // faults forwarded to the VMOS
	VirtualIRQs      uint64
	KCALLs           uint64
	MMIOEmuls        uint64 // emulated memory-mapped register references
	Waits            uint64
	ProbeFills       uint64 // PROBE instructions completed by the VMM
	TrapAllSteps     uint64 // instructions emulated under the trap-all scheme
	MachineChecks    uint64 // virtual machine checks delivered to the VM
	DiskRetries      uint64 // transient disk errors retried by the VMM
	WatchdogTrips    uint64 // watchdog halts of this VM
	SelfCheckRepairs uint64 // shadow PTEs repaired by the self-check pass
	UnknownKCALLs    uint64 // KCALLs with an unrecognized function code

	SlowPathAllocs uint64 // slow-path events that fell back to heap allocation

	// BatchFills always reads 0: every demand fill fills one PTE.
	//
	// Deprecated: bench/ is its last caller.
	BatchFills uint64

	Checkpoints         uint64 // checkpoint generations taken
	Recoveries          uint64 // supervisor restores from a checkpoint
	RecoveryFallbacks   uint64 // generations rejected (bad CRC etc.) during recovery
	RecoveryEscalations uint64 // recoveries abandoned: VM permanently halted

	// COW cloning (clone.go). COWBreaks counts privatizations over the
	// VM's lifetime; SharedPages/PrivatePages are gauges over the VM's
	// current frame map (shared = refcount above one at the last
	// transition; they always sum to the VM's page count).
	COWBreaks    uint64
	SharedPages  uint64
	PrivatePages uint64
}

// VMConfig describes a virtual machine to create.
type VMConfig struct {
	Name     string
	MemBytes uint32 // VM-physical memory, contiguous from 0
	// Image is loaded at VM-physical address LoadAt; StartPC is the
	// initial guest PC (mapping off).
	Image   []byte
	LoadAt  uint32
	StartPC uint32
	// DiskBlocks sizes the VM's virtual disk (512-byte blocks).
	DiskBlocks int

	// PreMapped starts the VM with memory management already enabled —
	// the state a boot loader would leave — using the given VM-physical
	// system page table and SCB.
	PreMapped bool
	SBR, SLR  uint32
	SCBB      uint32
}

// vcpu is a VM's architectural processor state: what the VM's own
// processor would hold. A checkpoint generation holds one too, so
// Clone, capture and restore each copy it with one assignment.
type vcpu struct {
	regs   [14]uint32 // R0..R13 when suspended
	pc     uint32
	pslLow uint32  // condition codes / trap enables when suspended
	vmpsl  vax.PSL // VM modes/IPL when suspended
	SPs    [4]uint32
	ISP    uint32

	// Virtualized processor registers (all in VM terms).
	scbb, pcbb             uint32
	p0br, p0lr, p1br, p1lr uint32
	sbr, slr               uint32
	mapen                  bool

	// Virtual interrupts: the software requests, the AST level, the
	// device interrupts pending by level, and whether the VM idles in
	// WAIT until one is deliverable.
	sisr    uint32
	astlvl  uint32
	irqs    vax.IRQs
	waiting bool

	// Virtual interval clock.
	clockOn bool
	clockIE bool
	ticks   uint64 // virtual uptime in ticks (advances only while running)
	uptime  uint32 // VM-physical address of the uptime cell, 0 = unset
}

// VM is one virtual VAX processor plus its memory and devices.
type VM struct {
	ID   int
	name string // label; read it through Name()

	MemSize uint32 // bytes

	// frames maps VM-physical page number to real page frame: the only
	// way VMM code reaches VM memory. CreateVM fills it from one
	// contiguous carve; a clone starts from its source's map, and COW
	// breaks (clone.go) rebind pages to private frames as they are
	// written. Whether a frame may be stored to is decided by its COW
	// refcount, never by how the VM was made. DestroyVM empties it, so
	// a stale handle's accesses fail.
	frames []uint32
	// cowClean marks a VM whose shadow tables hold no writable mapping
	// of any frame: every mapping of a shared frame faults on write, and
	// no private frame is mapped modified. Clone may then skip the
	// shadow demotion pass. Cleared by every path that installs a
	// writable mapping or privatizes a frame.
	cowClean bool
	// cowMask has one bit per VM-physical page, set while the page is
	// counted in Stats.SharedPages; cowNotePrivate moves a page to
	// PrivatePages exactly once per transition, keeping the two gauges
	// summing to the page count.
	cowMask []uint64

	// Virtual processor state (registers, PC and PSL live in the CPU
	// while the VM runs).
	vcpu

	// CPU accounting: real cycles consumed while this VM owned the
	// processor (including VMM emulation work done on its behalf).
	cyclesUsed   uint64
	resumeCycles uint64 // k.CPU.Cycles at the last resume

	waitDeadline uint64 // real tick count at which WAIT times out
	halted       bool
	haltMsg      string
	haltCycles   uint64 // real cycle count at the moment of the halt

	lastProgress uint64 // vm.ticks at the last progress event (watchdog)

	// Checkpoint ring and supervisor state, owner-confined like Stats.
	// Everything here is lazily initialized by the first checkpoint so
	// a VM on a monitor with checkpointing disabled carries only zero
	// values (CreateVM stays allocation-neutral).
	ckptGens     []*generation // generation ring, oldest first; nil until the first checkpoint
	ckptSeq      uint64        // checkpoints taken over the VM's lifetime
	ckptLastTick uint64        // vm.ticks at the last periodic checkpoint
	ckptMark     uint64        // progressSeq at the last periodic checkpoint
	ckptFallback int           // generations to step back at the next recovery
	progressSeq  uint64        // monotonic progress-event counter
	// pendingRecover marks a recoverable death (watchdog trip,
	// handler-less machine check) awaiting the supervisor. The VM halts
	// normally first — callers unwind through the vm.halted guards —
	// and a safe point (the tick handler, the Run halt loop, or the
	// parallel drive loop) performs the actual rollback.
	pendingRecover bool

	shadow *shadowSpace
	disk   *vDisk
	cons   vConsole
	rec    *trace.VMRecorder // event log, nil = recording disabled
	// Traced disk KCALL awaiting its completion IRQ (recorder only):
	// the KCALL-to-completion latency span closes at delivery.
	kcallStart   uint64
	kcallPending bool

	// Slow-path scratch: the guest-fault cell the deliver.go
	// constructors recycle (one fault is alive at a time; see the
	// convention there) and the PCB staging array for LDPCTX. Owned by
	// the goroutine running the VM, like Stats.
	gf       guestFault
	gfParams [2]uint32
	pcb      [cpu.PCBSize / 4]uint32

	Stats VMStats

	k *VMM
}

// CreateVM allocates and initializes a virtual machine.
func (k *VMM) CreateVM(cfg VMConfig) (*VM, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 1 << 20
	}
	pages := (cfg.MemBytes + vax.PageSize - 1) / vax.PageSize
	// Prefer a recycled run of this exact geometry (DestroyVM parks
	// them) over carving fresh pages; recycled runs carry the previous
	// owner's bytes and possibly cached decodes, so restore the
	// allocPages contract by hand.
	base, recycled := k.takeRun(pages)
	if recycled {
		k.CPU.InvalidateDecode(base*vax.PageSize, pages*vax.PageSize)
		if err := k.zeroPages(base, pages); err != nil {
			k.freeRun(base, pages)
			return nil, err
		}
	} else {
		var err error
		if base, err = k.allocPages(pages); err != nil {
			return nil, err
		}
	}
	vm := &VM{
		ID:      k.nextID,
		name:    cfg.Name,
		MemSize: pages * vax.PageSize,
		frames:  make([]uint32, pages),
		k:       k,
	}
	for j := range vm.frames {
		vm.frames[j] = base + uint32(j)
	}
	vm.Stats.PrivatePages = uint64(pages)
	k.nextID++
	if vm.name == "" {
		vm.name = defaultVMName(vm.ID)
	}
	// From here every failure returns the RAM run (and the shadow
	// tables, once built) to the pool: a refused CreateVM holds no pages.
	shadow, err := k.newShadowSpace(vm)
	if err != nil {
		k.freeRun(base, pages)
		return nil, err
	}
	vm.shadow = shadow
	if len(cfg.Image) > 0 && vm.dmaWrite(cfg.LoadAt, cfg.Image) != nil {
		shadow.releaseRuns(k)
		k.freeRun(base, pages)
		return nil, fmt.Errorf("vmm: image does not fit in VM memory")
	}
	blocks := cfg.DiskBlocks
	if blocks == 0 {
		blocks = 64
	}
	vm.disk = newVDisk(blocks)
	// Power-up state: VM kernel mode, mapping off, PC at the image start.
	vm.vmpsl = vax.PSL(0).WithCur(vax.Kernel).WithPrv(vax.Kernel)
	vm.pc = cfg.StartPC
	if cfg.PreMapped {
		vm.mapen = true
		vm.sbr = cfg.SBR
		vm.slr = min32(cfg.SLR, VMSLimitPTEs)
		vm.scbb = cfg.SCBB
	}
	k.addVM(vm)
	// Register with the recorder only once creation can no longer fail,
	// so the recorder never holds a log for a VM that does not exist.
	if k.rec != nil {
		vm.rec = k.rec.VM(vm.ID, vm.name)
		k.event(vm, trace.EvVMCreated, 0, fmt.Sprintf("%d KB at real base %#x", vm.MemSize/1024, base*vax.PageSize))
	}
	return vm, nil
}

// errOutsideVM rejects a VM-physical range outside the frame map
// without allocating: guests probe nonexistent memory on purpose.
var errOutsideVM = errors.New("vmm: outside VM memory")

// contains reports whether the n bytes at VM-physical vmPhys lie in the
// VM's frame map.
func (vm *VM) contains(vmPhys, n uint32) bool {
	size := uint32(len(vm.frames)) * vax.PageSize
	return vmPhys <= size && n <= size-vmPhys
}

// realAddr returns the real address of VM-physical vmPhys, which the
// caller has bounds-checked.
func (vm *VM) realAddr(vmPhys uint32) uint32 {
	return vm.frames[vmPhys/vax.PageSize]*vax.PageSize + vmPhys&vax.PageMask
}

// onePage reports whether the longword at VM-physical vmPhys lies in
// VM memory on one page: the accessors' fast path. Any other longword
// takes the page-walking DMA path, which also rejects it if outside.
func (vm *VM) onePage(vmPhys uint32) bool {
	return vmPhys&vax.PageMask <= vax.PageSize-4 && vm.contains(vmPhys, 4)
}

// readPhys reads a longword of VM-physical memory.
func (vm *VM) readPhys(vmPhys uint32) (uint32, bool) {
	if !vm.onePage(vmPhys) {
		var b [4]byte
		err := vm.dmaRead(vmPhys, b[:])
		return binary.LittleEndian.Uint32(b[:]), err == nil
	}
	v, err := vm.k.Mem.LoadLong(vm.realAddr(vmPhys))
	return v, err == nil
}

// writePhys writes a longword of VM-physical memory. The write bypasses
// the CPU's store path, so, as DMA does, it breaks COW sharing and drops
// the cached decodes whose bytes it overwrites.
func (vm *VM) writePhys(vmPhys, v uint32) bool {
	if !vm.onePage(vmPhys) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return vm.dmaWrite(vmPhys, b[:]) == nil
	}
	if !vm.k.cowBreak(vm, vmPhys/vax.PageSize) {
		return false
	}
	host := vm.realAddr(vmPhys)
	vm.k.CPU.InvalidateDecode(host, 4)
	return vm.k.Mem.StoreLong(host, v) == nil
}

// dmaRead copies len(b) bytes of VM-physical memory starting at vmPhys
// into b, walking the frame map page by page.
func (vm *VM) dmaRead(vmPhys uint32, b []byte) error {
	n := uint32(len(b))
	if !vm.contains(vmPhys, n) {
		return errOutsideVM
	}
	for off := uint32(0); off < n; {
		p := vmPhys + off
		chunk := min(vax.PageSize-p&vax.PageMask, n-off)
		if err := vm.k.Mem.LoadBytesInto(vm.realAddr(p), b[off:off+chunk]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// dmaWrite copies b into VM-physical memory starting at vmPhys — the
// device-DMA store path. Every touched page is COW-broken first (DMA
// must never land in a frame another VM references), and cached
// decodes are dropped chunk by chunk.
func (vm *VM) dmaWrite(vmPhys uint32, b []byte) error {
	n := uint32(len(b))
	if !vm.contains(vmPhys, n) {
		return errOutsideVM
	}
	for off := uint32(0); off < n; {
		p := vmPhys + off
		chunk := min(vax.PageSize-p&vax.PageMask, n-off)
		if !vm.k.cowBreak(vm, p/vax.PageSize) {
			return &mem.BusError{Addr: p, Write: true}
		}
		host := vm.realAddr(p)
		vm.k.CPU.InvalidateDecode(host, chunk)
		if err := vm.k.Mem.StoreBytes(host, b[off:off+chunk]); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// ResidentPages reports the physical pages this VM exclusively
// occupies: its private pages (shared pages are charged to no single
// holder — that deduplication is the point of cloning).
func (vm *VM) ResidentPages() uint64 { return vm.Stats.PrivatePages }

// Halted reports whether the VM has stopped, with the reason.
func (vm *VM) Halted() (bool, string) { return vm.halted, vm.haltMsg }

// DumpMemory copies out the VM's physical memory (for post-run
// inspection by tests and the experiment harness).
func (vm *VM) DumpMemory() []byte {
	out := make([]byte, vm.MemSize)
	if vm.dmaRead(0, out) != nil {
		return nil
	}
	return out
}

// Stats of the VMM that owns this VM (convenience for harness code).
func (vm *VM) Monitor() *VMM { return vm.k }

// ConsoleOutput returns everything the VM wrote to its console.
func (vm *VM) ConsoleOutput() string { return vm.cons.Output() }

// FeedConsole queues console input for the VM.
func (vm *VM) FeedConsole(s string) { vm.cons.Feed(s) }

// Disk returns the VM's virtual disk.
func (vm *VM) Disk() *vDisk { return vm.disk }

// Ticks returns the VM's virtual uptime in clock ticks.
func (vm *VM) Ticks() uint64 { return vm.ticks }

// HaltCycles returns the real cycle count at which the VM halted (0
// while it is still live).
func (vm *VM) HaltCycles() uint64 { return vm.haltCycles }

// CyclesUsed returns the real cycles consumed while this VM owned the
// processor, including VMM emulation work done on its behalf.
func (vm *VM) CyclesUsed() uint64 {
	if vm.k.Current() == vm {
		return vm.cyclesUsed + vm.k.CPU.Cycles - vm.resumeCycles
	}
	return vm.cyclesUsed
}

// SinceProgress returns how many ticks of its own CPU time the VM has
// run since its last progress event (what the watchdog budgets).
func (vm *VM) SinceProgress() uint64 { return vm.ticks - vm.lastProgress }

// runnable reports whether the VM can use the processor now.
func (vm *VM) runnable() bool {
	if vm.halted {
		return false
	}
	if vm.waiting {
		return vm.irqs.Above(0, vm.sisr) > 0
	}
	return true
}

// --- suspend / resume (world switch) ---

// suspend captures the running VM's processor state from the CPU.
// The caller guarantees vm is the current VM and the CPU is stopped at
// a resumable guest PC.
func (k *VMM) suspend(vm *VM) {
	c := k.CPU
	vm.cyclesUsed += c.Cycles - vm.resumeCycles
	copy(vm.regs[:], c.R[:14])
	vm.pc = c.PC()
	vm.pslLow = uint32(c.PSL()) & 0xFF
	vm.vmpsl = c.VMPSL
	k.saveGuestSP(vm)
	k.cur = nil
	// Open the between-VMs window: cycles charged from here until the
	// next resume (world-switch cost, halt bookkeeping) belong to the
	// VMM bucket, not to any guest.
	k.switchStart = c.Cycles
}

// resume loads a VM's state into the CPU and continues guest execution.
func (k *VMM) resume(vm *VM) {
	c := k.CPU
	k.cur = vm
	if k.switchStart != 0 {
		k.vmmCycles += c.Cycles - k.switchStart
		k.switchStart = 0
	}
	vm.resumeCycles = c.Cycles
	copy(c.R[:14], vm.regs[:])
	c.VMPSL = vm.vmpsl
	real := vax.PSL(vm.pslLow).
		WithCur(compressMode(vm.vmpsl.Cur())).
		WithPrv(compressMode(vm.vmpsl.Prv())).
		WithVM(true)
	c.SetPSL(real)
	c.SetSP(k.guestSP(vm))
	c.SetPC(vm.pc)
	vm.shadow.activate(c)
	c.MMU.TBIA()
}

// saveGuestSP stores the live stack pointer into the slot for the VM's
// current mode (or its interrupt stack). The authoritative mode is the
// processor's live VMPSL — vm.vmpsl is only a snapshot taken at
// suspend time (suspend refreshes it before calling here).
func (k *VMM) saveGuestSP(vm *VM) {
	sp := k.CPU.SP()
	if k.CPU.VMPSL.IS() {
		vm.ISP = sp
		return
	}
	vm.SPs[k.CPU.VMPSL.Cur()] = sp
}

// guestSP returns the stack pointer for the VM's current mode (per the
// live VMPSL; resume loads VMPSL before calling here).
func (k *VMM) guestSP(vm *VM) uint32 {
	if k.CPU.VMPSL.IS() {
		return vm.ISP
	}
	return vm.SPs[k.CPU.VMPSL.Cur()]
}

// haltCause classifies why a VM is being halted, which decides whether
// the supervisor may bring it back.
type haltCause int

const (
	// haltFatal deaths (guest HALT, nonexistent-memory references,
	// unrecoverable VMM state) are final even with the supervisor armed.
	haltFatal haltCause = iota
	// haltWatchdog and haltNoHandler deaths are external to the
	// checkpointed state — a stall, or a device error the guest has no
	// handler for — so rolling back to a checkpoint is meaningful.
	haltWatchdog
	haltNoHandler
)

// HaltVM stops a VM from outside the machine — the operator/API
// "power off" the fleet control plane issues. The halt is fatal (no
// supervisor rollback) and releases the VM's shadow-table runs; the
// memory itself is recycled by DestroyVM. Call on the root monitor
// while no run is in flight; a no-op on an already-halted VM.
func (k *VMM) HaltVM(vm *VM, msg string) {
	if k.parent != nil || vm == nil || vm.k != k || vm.halted {
		return
	}
	k.haltVM(vm, msg)
}

// haltVM stops a VM permanently — the response to HALT in VM-kernel
// mode and to references to nonexistent memory ("we respond by halting
// the VM, because touching non-existent memory can be a symptom of a
// security attack", Section 5).
func (k *VMM) haltVM(vm *VM, msg string) {
	k.haltVMCause(vm, msg, haltFatal)
}

// haltVMCause is haltVM with a death classification. A recoverable
// death under an armed supervisor halts the VM exactly like a fatal one
// — every unwinding caller checks vm.halted, and recovery in their
// midst would hand another VM's state to code still unwinding this
// one's — but keeps the shadow frames and marks the VM for deferred
// recovery at the next safe point.
func (k *VMM) haltVMCause(vm *VM, msg string, cause haltCause) {
	k.halt(vm)
	vm.haltMsg = msg
	vm.haltCycles = k.CPU.Cycles
	k.event(vm, trace.EvVMHalted, 0, msg)
	if k.Current() == vm {
		k.suspend(vm)
	}
	if cause != haltFatal && k.cfg.Recover {
		vm.pendingRecover = true
		k.scheduleNext()
		return
	}
	// A halted VM never resumes: its shadow-table frames are dead, and
	// the bump allocator cannot reclaim them on its own. Park the runs
	// in the shared pool so the next VM's shadow space recycles them
	// (the self-check and snapshot paths both skip halted VMs). A clone
	// halted before its first dispatch has no tables yet.
	if vm.shadow != nil {
		vm.shadow.releaseRuns(k)
	}
	k.scheduleNext()
}

// addVM enters a new VM, whose ID is the highest yet, in the VM table
// and the live list, and on the tick list if the tick has work for it
// (a clone of a waiting or timed VM).
func (k *VMM) addVM(vm *VM) {
	k.vms = append(k.vms, vm)
	k.live = append(k.live, vm)
	k.tickJoin(vm)
}

// halt marks vm halted and takes it off the live list. With unhalt it
// is the only writer of vm.halted. The VM stays on the tick list until
// the next tick finds it halted, so a halt in the middle of the tick's
// uptime pass changes no list that pass walks.
func (k *VMM) halt(vm *VM) {
	vm.halted = true
	k.live = removeVM(k.live, vm)
}

// unhalt makes vm live again, back at its place in table order, and
// puts it back on the tick list if the tick has work for it.
func (k *VMM) unhalt(vm *VM) {
	vm.halted = false
	k.live = insertVM(k.live, vm)
	k.tickJoin(vm)
}

// tickJoin puts vm on the tick list, in table order, if the tick has
// work for it: it is waiting, or it keeps an uptime cell. Called
// wherever either starts; a VM already on the list stays where it is.
func (k *VMM) tickJoin(vm *VM) {
	if vm.waiting || vm.uptime != 0 {
		k.ticked = insertVM(k.ticked, vm)
	}
}

// nextLive returns the first live VM whose ID is above id, or nil. A
// walk over the live list whose work can halt VMs steps with it, so it
// visits every VM still live when reached, once, in table order.
func (k *VMM) nextLive(id int) *VM {
	i, found := slices.BinarySearchFunc(k.live, id, byID)
	if found {
		i++
	}
	if i < len(k.live) {
		return k.live[i]
	}
	return nil
}

// byID orders a VM against an ID: every VM list is in table order,
// which is ID order.
func byID(vm *VM, id int) int { return cmp.Compare(vm.ID, id) }

// insertVM inserts vm into list at its place in ID order, unless it is
// already there.
func insertVM(list []*VM, vm *VM) []*VM {
	if i, found := slices.BinarySearchFunc(list, vm.ID, byID); !found {
		return slices.Insert(list, i, vm)
	}
	return list
}

// removeVM removes vm from list, if it is there, clearing the slot it
// leaves at the end.
func removeVM(list []*VM, vm *VM) []*VM {
	if i, found := slices.BinarySearchFunc(list, vm.ID, byID); found {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// scheduleNext suspends the current VM, picks the next runnable VM and
// resumes it; with none runnable the machine idles in WAIT until a
// clock tick, or halts when every VM has halted. The scan walks the
// live list from the front: the lowest-index runnable VM wins, since
// suspend leaves no current VM to start after.
func (k *VMM) scheduleNext() {
	if cur := k.Current(); cur != nil {
		k.suspend(cur)
	}
	if len(k.live) == 0 {
		k.CPU.Halt(cpu.HaltInstruction)
		return
	}
	for _, vm := range k.live {
		if !vm.runnable() {
			continue
		}
		if vm.shadow == nil && !k.ensureShadow(vm) {
			// Out of memory building the clone's deferred shadow
			// tables: the VM just halted and left the live list; rescan.
			k.scheduleNext()
			return
		}
		vm.waiting = false
		k.Stats.WorldSwitches++
		k.charge(cpu.CostVMMWorldSwitch)
		if vm.rec != nil {
			vm.rec.Record(trace.EvSchedRun, k.CPU.Cycles, vm.pc, vm.pc)
		}
		k.resume(vm)
		k.deliverPendingIRQs(vm)
		return
	}
	// Everything is waiting: idle until the next real clock tick.
	k.CPU.SetPSL(k.CPU.PSL().WithVM(false))
	k.CPU.SetWaiting(true)
}
