package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ckpt"
	"repro/internal/trace"
	"repro/internal/vax"
)

// VM checkpoint and restore over the internal/ckpt stream format: a
// versioned, sectioned, CRC-validated archive with one section per
// state domain — virtual processor, virtualized mapping registers,
// physical pages (zero runs elided), devices, console, and cycle
// accounting. A VM can be written to any io.Writer mid-run and
// revived from any io.Reader, in this monitor or another; the
// supervisor (supervisor.go) restores the same sections in place to
// bring a failed VM back to its last checkpoint. Shadow tables are
// not saved: they are caches, rebuilt on demand after restore exactly
// as after a context switch. Console input is host-side transient and
// is not part of a checkpoint.

// maxRestoreMem caps the memory size a checkpoint may claim, so a
// corrupted stream cannot drive an absurd allocation before CreateVM
// gets a chance to refuse it.
const maxRestoreMem = 1 << 28

// leBuf builds little-endian section payloads.
type leBuf struct{ b []byte }

func (w *leBuf) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *leBuf) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

func (w *leBuf) flag(v bool) {
	if v {
		w.u32(1)
	} else {
		w.u32(0)
	}
}

// leReader consumes little-endian section payloads without ever
// panicking: reads past the end set short and return zero.
type leReader struct {
	b     []byte
	short bool
}

func (r *leReader) u32() uint32 {
	if len(r.b) < 4 {
		r.short = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *leReader) u64() uint64 {
	if len(r.b) < 8 {
		r.short = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *leReader) flag() bool { return r.u32() != 0 }

// captureLive refreshes a current VM's suspended-state fields from the
// live processor without suspending it: the VM keeps the processor,
// but its regs/pc/PSL snapshot is now checkpoint-accurate. The caller
// guarantees the CPU sits at an instruction boundary (the VMM only
// runs between guest instructions, so it always does).
func (k *VMM) captureLive(vm *VM) {
	if k.Current() != vm {
		return
	}
	c := k.CPU
	copy(vm.regs[:], c.R[:14])
	vm.pc = c.PC()
	vm.pslLow = uint32(c.PSL()) & 0xFF
	vm.vmpsl = c.VMPSL
	k.saveGuestSP(vm)
}

// WriteCheckpoint streams the VM's complete state. The VM may be
// current (its live processor state is captured in place) but must
// not be halted.
func (k *VMM) WriteCheckpoint(vm *VM, w io.Writer) error {
	if vm.halted {
		return fmt.Errorf("vmm: cannot checkpoint a halted VM (%s)", vm.haltMsg)
	}
	k.captureLive(vm)
	e, err := ckpt.NewEncoder(w, false)
	if err != nil {
		return err
	}

	var cpuSec leBuf
	for _, r := range vm.regs {
		cpuSec.u32(r)
	}
	cpuSec.u32(vm.pc)
	cpuSec.u32(vm.pslLow)
	cpuSec.u32(uint32(vm.vmpsl))
	for _, sp := range vm.SPs {
		cpuSec.u32(sp)
	}
	cpuSec.u32(vm.ISP)
	cpuSec.u32(vm.scbb)
	cpuSec.u32(vm.pcbb)
	cpuSec.u32(vm.sisr)
	cpuSec.u32(vm.astlvl)
	for _, v := range vm.pendingIRQ {
		cpuSec.u32(uint32(v))
	}
	cpuSec.flag(vm.waiting)
	// The WAIT deadline travels as ticks-remaining: absolute tick counts
	// do not survive a move between machines (or a rollback in time).
	var remain uint64
	if vm.waiting && vm.waitDeadline > k.Stats.ClockTicks {
		remain = vm.waitDeadline - k.Stats.ClockTicks
	}
	cpuSec.u64(remain)
	if err := e.Section(ckpt.SecCPU, cpuSec.b); err != nil {
		return err
	}

	var mmu leBuf
	mmu.u32(vm.p0br)
	mmu.u32(vm.p0lr)
	mmu.u32(vm.p1br)
	mmu.u32(vm.p1lr)
	mmu.u32(vm.sbr)
	mmu.u32(vm.slr)
	mmu.flag(vm.mapen)
	if err := e.Section(ckpt.SecMMU, mmu.b); err != nil {
		return err
	}

	mem := vm.DumpMemory()
	if mem == nil {
		return fmt.Errorf("vmm: memory dump failed")
	}
	packed, err := ckpt.PackPages(mem, vax.PageSize)
	if err != nil {
		return err
	}
	var pages leBuf
	pages.u32(vm.MemSize)
	pages.b = append(pages.b, packed...)
	if err := e.Section(ckpt.SecPages, pages.b); err != nil {
		return err
	}

	var dev leBuf
	d := vm.disk
	dev.u32(uint32(len(d.data())))
	diskPacked, err := ckpt.PackPages(d.data(), vax.PageSize)
	if err != nil {
		return err
	}
	dev.b = append(dev.b, diskPacked...)
	dev.u32(d.csr)
	dev.u32(d.block)
	dev.u32(d.addr)
	dev.u32(d.count)
	dev.u32(d.stat)
	if err := e.Section(ckpt.SecDevices, dev.b); err != nil {
		return err
	}

	var cons leBuf
	vm.cons.mu.Lock()
	cons.flag(vm.cons.rxIE)
	cons.flag(vm.cons.txIE)
	cons.b = append(cons.b, vm.cons.out.Bytes()...)
	vm.cons.mu.Unlock()
	if err := e.Section(ckpt.SecConsole, cons.b); err != nil {
		return err
	}

	var cyc leBuf
	cyc.u64(vm.ticks)
	cyc.u32(vm.uptime)
	cyc.flag(vm.clockOn)
	cyc.flag(vm.clockIE)
	if err := e.Section(ckpt.SecCycles, cyc.b); err != nil {
		return err
	}
	return e.Close()
}

// Snapshot serializes the VM into a checkpoint image.
func (k *VMM) Snapshot(vm *VM) ([]byte, error) {
	var buf bytes.Buffer
	if err := k.WriteCheckpoint(vm, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ckptState is the decoded, validated content of a checkpoint stream,
// ready to apply to a VM.
type ckptState struct {
	regs       [14]uint32
	pc         uint32
	pslLow     uint32
	vmpsl      vax.PSL
	SPs        [4]uint32
	ISP        uint32
	scbb, pcbb uint32
	sisr       uint32
	astlvl     uint32
	pendingIRQ [32]vax.Vector
	waiting    bool
	waitRemain uint64

	p0br, p0lr, p1br, p1lr uint32
	sbr, slr               uint32
	mapen                  bool

	memSize uint32
	pages   []byte // still packed; unpacked once the target size is known

	hasDisk                       bool
	diskLen                       uint32
	diskPages                     []byte
	csr, dblock, addr, count, dst uint32

	hasConsole bool
	rxIE, txIE bool
	consoleOut []byte
	ticks      uint64
	uptime     uint32
	clockOn    bool
	clockIE    bool
}

// decodeCheckpoint validates a checkpoint stream and parses every
// section the monitor understands. All errors are returned, never
// panicked, whatever the input.
func decodeCheckpoint(r io.Reader) (*ckptState, error) {
	secs, err := ckpt.Sections(r)
	if err != nil {
		return nil, fmt.Errorf("vmm: bad checkpoint: %w", err)
	}
	for _, kind := range []ckpt.SectionKind{ckpt.SecCPU, ckpt.SecMMU, ckpt.SecPages, ckpt.SecCycles} {
		if _, ok := secs[kind]; !ok {
			return nil, fmt.Errorf("vmm: bad checkpoint: missing %v section", kind)
		}
	}
	st := &ckptState{}

	cr := leReader{b: secs[ckpt.SecCPU]}
	for i := range st.regs {
		st.regs[i] = cr.u32()
	}
	st.pc = cr.u32()
	st.pslLow = cr.u32()
	st.vmpsl = vax.PSL(cr.u32())
	for i := range st.SPs {
		st.SPs[i] = cr.u32()
	}
	st.ISP = cr.u32()
	st.scbb = cr.u32()
	st.pcbb = cr.u32()
	st.sisr = cr.u32()
	st.astlvl = cr.u32()
	for i := range st.pendingIRQ {
		st.pendingIRQ[i] = vax.Vector(cr.u32())
	}
	st.waiting = cr.flag()
	st.waitRemain = cr.u64()
	if cr.short {
		return nil, fmt.Errorf("vmm: bad checkpoint: short cpu section")
	}

	mr := leReader{b: secs[ckpt.SecMMU]}
	st.p0br, st.p0lr = mr.u32(), mr.u32()
	st.p1br, st.p1lr = mr.u32(), mr.u32()
	st.sbr, st.slr = mr.u32(), mr.u32()
	st.mapen = mr.flag()
	if mr.short {
		return nil, fmt.Errorf("vmm: bad checkpoint: short mmu section")
	}

	pr := leReader{b: secs[ckpt.SecPages]}
	st.memSize = pr.u32()
	if pr.short || st.memSize == 0 || st.memSize > maxRestoreMem ||
		st.memSize%vax.PageSize != 0 {
		return nil, fmt.Errorf("vmm: bad checkpoint: memory size %#x", st.memSize)
	}
	st.pages = pr.b

	yr := leReader{b: secs[ckpt.SecCycles]}
	st.ticks = yr.u64()
	st.uptime = yr.u32()
	st.clockOn = yr.flag()
	st.clockIE = yr.flag()
	if yr.short {
		return nil, fmt.Errorf("vmm: bad checkpoint: short cycles section")
	}

	if sec, ok := secs[ckpt.SecDevices]; ok {
		dr := leReader{b: sec}
		st.diskLen = dr.u32()
		if dr.short || st.diskLen > maxRestoreMem || st.diskLen%vax.PageSize != 0 {
			return nil, fmt.Errorf("vmm: bad checkpoint: disk size %#x", st.diskLen)
		}
		// The five controller registers trail the packed image.
		if len(dr.b) < 20 {
			return nil, fmt.Errorf("vmm: bad checkpoint: short devices section")
		}
		st.diskPages = dr.b[:len(dr.b)-20]
		tr := leReader{b: dr.b[len(dr.b)-20:]}
		st.csr, st.dblock, st.addr, st.count, st.dst =
			tr.u32(), tr.u32(), tr.u32(), tr.u32(), tr.u32()
		st.hasDisk = true
	}
	if sec, ok := secs[ckpt.SecConsole]; ok {
		sr := leReader{b: sec}
		st.rxIE = sr.flag()
		st.txIE = sr.flag()
		if sr.short {
			return nil, fmt.Errorf("vmm: bad checkpoint: short console section")
		}
		st.consoleOut = sr.b
		st.hasConsole = true
	}
	return st, nil
}

// applyVirtState installs the decoded virtual-processor, mapping and
// clock state into a VM (shared by ReadCheckpoint and the in-place
// recovery path).
func (k *VMM) applyVirtState(vm *VM, st *ckptState) {
	vm.regs = st.regs
	vm.pc = st.pc
	vm.pslLow = st.pslLow
	vm.vmpsl = st.vmpsl
	vm.SPs = st.SPs
	vm.ISP = st.ISP
	vm.scbb, vm.pcbb = st.scbb, st.pcbb
	vm.sisr, vm.astlvl = st.sisr, st.astlvl
	vm.pendingIRQ = st.pendingIRQ
	vm.waiting = st.waiting
	vm.waitDeadline = k.Stats.ClockTicks + st.waitRemain
	vm.p0br, vm.p0lr, vm.p1br, vm.p1lr = st.p0br, st.p0lr, st.p1br, st.p1lr
	vm.sbr, vm.slr = st.sbr, st.slr
	vm.mapen = st.mapen
	vm.ticks = st.ticks
	vm.uptime = st.uptime
	vm.clockOn, vm.clockIE = st.clockOn, st.clockIE
}

// ReadCheckpoint creates a new VM in this monitor from a checkpoint
// stream.
func (k *VMM) ReadCheckpoint(name string, r io.Reader) (*VM, error) {
	st, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	memory := make([]byte, st.memSize)
	if err := ckpt.UnpackPages(st.pages, memory, vax.PageSize); err != nil {
		return nil, fmt.Errorf("vmm: bad checkpoint: %w", err)
	}
	diskBlocks := 0
	var diskImg []byte
	if st.hasDisk {
		diskImg = make([]byte, st.diskLen)
		if err := ckpt.UnpackPages(st.diskPages, diskImg, vax.PageSize); err != nil {
			return nil, fmt.Errorf("vmm: bad checkpoint: %w", err)
		}
		diskBlocks = int(st.diskLen) / vax.PageSize
	}

	vm, err := k.CreateVM(VMConfig{
		Name:       name,
		MemBytes:   st.memSize,
		Image:      memory,
		DiskBlocks: diskBlocks,
	})
	if err != nil {
		return nil, err
	}
	// All of the restored VM's memory just changed underneath any
	// existing mappings: no cached decode can be trusted.
	k.CPU.FlushDecodeCache()
	copy(vm.disk.image, diskImg)
	vm.disk.csr, vm.disk.block = st.csr, st.dblock
	vm.disk.addr, vm.disk.count, vm.disk.stat = st.addr, st.count, st.dst
	k.applyVirtState(vm, st)
	if st.hasConsole {
		vm.cons.mu.Lock()
		vm.cons.out.Write(st.consoleOut)
		vm.cons.rxIE, vm.cons.txIE = st.rxIE, st.txIE
		vm.cons.mu.Unlock()
	}
	// Seed the (fresh, null-filled) shadow cache with the restored
	// process: slot 0 claims the VM's current P0 base and demand fills
	// repopulate it, exactly as after a context switch.
	if vm.mapen && vm.p0br != 0 {
		vm.shadow.slotOwner[0] = vm.p0br
	}
	k.event(vm, trace.EvVMCreated, 0, "restored from checkpoint")
	return vm, nil
}

// Restore creates a new VM in this monitor from a checkpoint image.
func (k *VMM) Restore(name string, image []byte) (*VM, error) {
	return k.ReadCheckpoint(name, bytes.NewReader(image))
}

// restoreInPlace rolls an existing (suspended, usually halted) VM back
// to a checkpoint image without creating a new VM: the supervisor's
// recovery primitive. Memory, processor and mapping state return to
// the checkpoint; the disk (durable storage) and console output
// (already observed by the host) deliberately do not roll back. The
// image must validate and must describe this VM's geometry.
func (k *VMM) restoreInPlace(vm *VM, image []byte) error {
	st, err := decodeCheckpoint(bytes.NewReader(image))
	if err != nil {
		return err
	}
	if st.memSize != vm.MemSize {
		return fmt.Errorf("vmm: checkpoint is for a %d KB VM, this VM has %d KB",
			st.memSize/1024, vm.MemSize/1024)
	}
	// A clone restored before its first dispatch has no shadow tables
	// yet (s == nil below); ensureShadow builds them fresh at the next
	// dispatch, over the privatized frames, so every rebuild step here
	// is skipped rather than performed on nothing.
	s := vm.shadow
	if s != nil && s.released {
		return fmt.Errorf("vmm: shadow frames already released")
	}
	memory := make([]byte, st.memSize)
	if err := ckpt.UnpackPages(st.pages, memory, vax.PageSize); err != nil {
		return err
	}
	// Full overwrite: every shared frame gets a fresh private page (no
	// copy — the image lands on top).
	if err := k.cowPrivatize(vm); err != nil {
		return err
	}
	if err := vm.dmaWrite(0, memory); err != nil {
		return err
	}
	k.applyVirtState(vm, st)

	// Rebuild the shadow caches for the restored mapping from scratch:
	// every slot back to null PTEs, slot 0 claiming the restored P0
	// base. switchProcess is not used here — it activates the shadow on
	// the live processor, which may be running another VM.
	if s != nil {
		for i := range s.slotOwner {
			if err := s.clearSlot(k, i); err != nil {
				return err
			}
			s.slotOwner[i] = 0
			s.slotLRU[i] = 0
		}
		if err := s.clearP1(k); err != nil {
			return err
		}
		if err := s.clearSRegion(k); err != nil {
			return err
		}
		s.active = 0
		if vm.mapen && vm.p0br != 0 {
			s.slotOwner[0] = vm.p0br
		}
		// The identity table may still point at pre-restore frames;
		// rebuild it over the privatized map (all frames now exclusive,
		// so every entry comes back premodified).
		if err := s.buildIdentity(k); err != nil {
			return err
		}
	}
	k.CPU.MMU.TBIA()

	// The rolled-back guest restarts its watchdog budget and idle
	// accounting; external interrupt mailboxes survive untouched (posts
	// that raced the failure still deliver).
	vm.lastProgress = vm.ticks
	vm.idleWaits = 0
	return nil
}
