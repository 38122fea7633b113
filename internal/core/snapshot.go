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
//
// Every path runs through one in-memory form, the generation: capture
// turns a VM into one and encode turns it into a stream; decode turns
// a stream into one and apply (ReadCheckpoint, restoreInPlace) turns
// it back into a VM. The supervisor's ring holds generations, not
// streams, so a periodic checkpoint costs the pages that changed.

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

// A generation is one checkpoint of a VM held in memory: the VM's state
// record and the device registers as decoded fields, and each page of
// VM memory and each block of the virtual disk as a reference to an
// immutable blob, nil for a page of zeros. Consecutive generations of
// one VM share the blobs of the pages that did not change between them
// (capture), so a blob is never written once made. The stream a
// generation encodes to carries every byte: an exported checkpoint
// stands alone.
type generation struct {
	vcpu
	waitRemain uint64 // ticks left of a WAIT's timeout

	pages []*ckpt.Page

	hasDisk                       bool
	disk                          []*ckpt.Page
	csr, dblock, addr, count, dst uint32

	hasConsole bool
	rxIE, txIE bool
	consoleOut []byte

	// poisoned is the generation's stream once a fault plan has
	// corrupted it in the ring (tryRecover). Restores decode it in place
	// of a fresh encoding; the blobs stay intact for the generations
	// that share them.
	poisoned []byte
}

// Fixed section payload lengths: the cpu, mmu and cycles sections, and
// the controller registers that trail the devices section's disk image.
const (
	cpuSectionLen    = 4*14 + 4*3 + 4*4 + 4*5 + 4*32 + 4 + 8
	mmuSectionLen    = 4 * 7
	cyclesSectionLen = 8 + 4*3
	diskRegsLen      = 4 * 5
)

// zeroPage holds the bytes every nil page reference stands for.
var zeroPage ckpt.Page

func (g *generation) memSize() uint32 { return uint32(len(g.pages)) * vax.PageSize }

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

// capture takes a generation of the VM, sharing prev's blob for every
// page and disk block whose bytes are unchanged. The test is one
// 512-byte compare per page, so the store paths carry no write
// tracking, and a rollback that rewrote memory needs no special case.
// A page that changed is copied, or becomes nil when it is now all
// zeros, so a generation encodes exactly as a scan of the full image
// would. prev may be nil. The VM may be current (its live processor
// state is captured in place) but must not be halted.
func (k *VMM) capture(vm *VM, prev *generation) (*generation, error) {
	if vm.halted {
		return nil, fmt.Errorf("vmm: cannot checkpoint a halted VM (%s)", vm.haltMsg)
	}
	k.captureLive(vm)
	d := vm.disk
	g := &generation{
		vcpu:    vm.vcpu,
		hasDisk: true, csr: d.csr, dblock: d.block, addr: d.addr, count: d.count, dst: d.stat,
		hasConsole: true,
	}
	// The WAIT deadline travels as ticks-remaining: absolute tick counts
	// do not survive a move between machines (or a rollback in time).
	if vm.waiting && vm.waitDeadline > k.Stats.ClockTicks {
		g.waitRemain = vm.waitDeadline - k.Stats.ClockTicks
	}
	var prevPages, prevDisk []*ckpt.Page
	if prev != nil {
		prevPages, prevDisk = prev.pages, prev.disk
	}
	g.pages = make([]*ckpt.Page, len(vm.frames))
	for i, f := range vm.frames {
		b, err := k.Mem.Window(f*vax.PageSize, vax.PageSize)
		if err != nil {
			return nil, err
		}
		g.pages[i] = sharePage(b, prevPages, i)
	}
	img := d.data()
	g.disk = make([]*ckpt.Page, len(img)/vax.PageSize)
	for i := range g.disk {
		g.disk[i] = sharePage(img[i*vax.PageSize:(i+1)*vax.PageSize], prevDisk, i)
	}
	vm.cons.mu.Lock()
	g.rxIE, g.txIE = vm.cons.rxIE, vm.cons.txIE
	g.consoleOut = bytes.Clone(vm.cons.out.Bytes())
	vm.cons.mu.Unlock()
	return g, nil
}

// sharePage returns prev[i] when it still holds b's bytes, else a new
// blob of b, or nil when b is all zeros.
func sharePage(b []byte, prev []*ckpt.Page, i int) *ckpt.Page {
	var old *ckpt.Page
	if i < len(prev) {
		old = prev[i]
	}
	ref := old
	if ref == nil {
		ref = &zeroPage
	}
	if bytes.Equal(b, ref[:]) {
		return old
	}
	if bytes.Equal(b, zeroPage[:]) {
		return nil
	}
	p := new(ckpt.Page)
	copy(p[:], b)
	return p
}

// encodedLen returns the length of the generation's stream without
// encoding it, or the error encoding it would meet.
func (g *generation) encodedLen() (int, error) {
	var lens [6]int
	n := 0
	add := func(l int) { lens[n] = l; n++ }
	add(cpuSectionLen)
	add(mmuSectionLen)
	add(4 + ckpt.PackedLen(g.pages))
	if g.hasDisk {
		add(4 + ckpt.PackedLen(g.disk) + diskRegsLen)
	}
	if g.hasConsole {
		add(8 + len(g.consoleOut))
	}
	add(cyclesSectionLen)
	return ckpt.StreamLen(lens[:n]...)
}

// sections builds the generation's section payloads in stream order.
func (g *generation) sections() []ckpt.Section {
	var cpuSec leBuf
	for _, r := range g.regs {
		cpuSec.u32(r)
	}
	cpuSec.u32(g.pc)
	cpuSec.u32(g.pslLow)
	cpuSec.u32(uint32(g.vmpsl))
	for _, sp := range g.SPs {
		cpuSec.u32(sp)
	}
	cpuSec.u32(g.ISP)
	cpuSec.u32(g.scbb)
	cpuSec.u32(g.pcbb)
	cpuSec.u32(g.sisr)
	cpuSec.u32(g.astlvl)
	for _, v := range g.irqs.Vectors() {
		cpuSec.u32(uint32(v))
	}
	cpuSec.flag(g.waiting)
	cpuSec.u64(g.waitRemain)

	var mmu leBuf
	mmu.u32(g.p0br)
	mmu.u32(g.p0lr)
	mmu.u32(g.p1br)
	mmu.u32(g.p1lr)
	mmu.u32(g.sbr)
	mmu.u32(g.slr)
	mmu.flag(g.mapen)

	pages := leBuf{b: make([]byte, 0, 4+ckpt.PackedLen(g.pages))}
	pages.u32(g.memSize())
	pages.b = ckpt.AppendPages(pages.b, g.pages)

	secs := []ckpt.Section{
		{Kind: ckpt.SecCPU, Payload: cpuSec.b},
		{Kind: ckpt.SecMMU, Payload: mmu.b},
		{Kind: ckpt.SecPages, Payload: pages.b},
	}
	if g.hasDisk {
		dev := leBuf{b: make([]byte, 0, 4+ckpt.PackedLen(g.disk)+diskRegsLen)}
		dev.u32(uint32(len(g.disk)) * vax.PageSize)
		dev.b = ckpt.AppendPages(dev.b, g.disk)
		dev.u32(g.csr)
		dev.u32(g.dblock)
		dev.u32(g.addr)
		dev.u32(g.count)
		dev.u32(g.dst)
		secs = append(secs, ckpt.Section{Kind: ckpt.SecDevices, Payload: dev.b})
	}
	if g.hasConsole {
		var cons leBuf
		cons.flag(g.rxIE)
		cons.flag(g.txIE)
		cons.b = append(cons.b, g.consoleOut...)
		secs = append(secs, ckpt.Section{Kind: ckpt.SecConsole, Payload: cons.b})
	}
	var cyc leBuf
	cyc.u64(g.ticks)
	cyc.u32(g.uptime)
	cyc.flag(g.clockOn)
	cyc.flag(g.clockIE)
	return append(secs, ckpt.Section{Kind: ckpt.SecCycles, Payload: cyc.b})
}

// encode returns the generation's stream, uncompressed, in one buffer
// of its exact length.
func (g *generation) encode() ([]byte, error) {
	n, err := g.encodedLen()
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	e, err := ckpt.NewEncoder(buf)
	if err != nil {
		return nil, err
	}
	for _, s := range g.sections() {
		if err := e.Section(s.Kind, s.Payload); err != nil {
			return nil, err
		}
	}
	if err := e.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// stream returns the stream a restore of the generation decodes: the
// poisoned one if a fault plan corrupted it, else a fresh encoding, so
// every restore checks every CRC.
func (g *generation) stream() ([]byte, error) {
	if g.poisoned != nil {
		return g.poisoned, nil
	}
	return g.encode()
}

// WriteCheckpoint streams the VM's complete state. The VM may be
// current (its live processor state is captured in place) but must
// not be halted.
func (k *VMM) WriteCheckpoint(vm *VM, w io.Writer) error {
	img, err := k.Snapshot(vm)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// Snapshot serializes the VM into a checkpoint image.
func (k *VMM) Snapshot(vm *VM) ([]byte, error) {
	g, err := k.capture(vm, vm.checkpointGen(0))
	if err != nil {
		return nil, err
	}
	return g.encode()
}

// decodeGeneration validates a checkpoint stream and parses every
// section the monitor understands. All errors are returned, never
// panicked, whatever the input. Page blobs alias the decoded payloads.
func decodeGeneration(r io.Reader) (*generation, error) {
	secs, err := ckpt.Sections(r)
	if err != nil {
		return nil, fmt.Errorf("vmm: bad checkpoint: %w", err)
	}
	for _, kind := range []ckpt.SectionKind{ckpt.SecCPU, ckpt.SecMMU, ckpt.SecPages, ckpt.SecCycles} {
		if _, ok := secs[kind]; !ok {
			return nil, fmt.Errorf("vmm: bad checkpoint: missing %v section", kind)
		}
	}
	g := &generation{}

	cr := leReader{b: secs[ckpt.SecCPU]}
	for i := range g.regs {
		g.regs[i] = cr.u32()
	}
	g.pc = cr.u32()
	g.pslLow = cr.u32()
	g.vmpsl = vax.PSL(cr.u32())
	for i := range g.SPs {
		g.SPs[i] = cr.u32()
	}
	g.ISP = cr.u32()
	g.scbb = cr.u32()
	g.pcbb = cr.u32()
	g.sisr = cr.u32()
	g.astlvl = cr.u32()
	var vecs [32]vax.Vector
	for i := range vecs {
		vecs[i] = vax.Vector(cr.u32())
	}
	g.irqs = vax.IRQsFrom(vecs)
	g.waiting = cr.flag()
	g.waitRemain = cr.u64()
	if cr.short {
		return nil, fmt.Errorf("vmm: bad checkpoint: short cpu section")
	}

	mr := leReader{b: secs[ckpt.SecMMU]}
	g.p0br, g.p0lr = mr.u32(), mr.u32()
	g.p1br, g.p1lr = mr.u32(), mr.u32()
	g.sbr, g.slr = mr.u32(), mr.u32()
	g.mapen = mr.flag()
	if mr.short {
		return nil, fmt.Errorf("vmm: bad checkpoint: short mmu section")
	}

	pr := leReader{b: secs[ckpt.SecPages]}
	memSize := pr.u32()
	if pr.short || memSize == 0 || memSize > maxRestoreMem ||
		memSize%vax.PageSize != 0 {
		return nil, fmt.Errorf("vmm: bad checkpoint: memory size %#x", memSize)
	}
	g.pages = make([]*ckpt.Page, memSize/vax.PageSize)
	if err := ckpt.UnpackPages(pr.b, g.pages); err != nil {
		return nil, fmt.Errorf("vmm: bad checkpoint: %w", err)
	}

	yr := leReader{b: secs[ckpt.SecCycles]}
	g.ticks = yr.u64()
	g.uptime = yr.u32()
	g.clockOn = yr.flag()
	g.clockIE = yr.flag()
	if yr.short {
		return nil, fmt.Errorf("vmm: bad checkpoint: short cycles section")
	}

	if sec, ok := secs[ckpt.SecDevices]; ok {
		dr := leReader{b: sec}
		diskLen := dr.u32()
		if dr.short || diskLen > maxRestoreMem || diskLen%vax.PageSize != 0 {
			return nil, fmt.Errorf("vmm: bad checkpoint: disk size %#x", diskLen)
		}
		// The five controller registers trail the packed image.
		if len(dr.b) < diskRegsLen {
			return nil, fmt.Errorf("vmm: bad checkpoint: short devices section")
		}
		g.disk = make([]*ckpt.Page, diskLen/vax.PageSize)
		if err := ckpt.UnpackPages(dr.b[:len(dr.b)-diskRegsLen], g.disk); err != nil {
			return nil, fmt.Errorf("vmm: bad checkpoint: %w", err)
		}
		tr := leReader{b: dr.b[len(dr.b)-diskRegsLen:]}
		g.csr, g.dblock, g.addr, g.count, g.dst =
			tr.u32(), tr.u32(), tr.u32(), tr.u32(), tr.u32()
		g.hasDisk = true
	}
	if sec, ok := secs[ckpt.SecConsole]; ok {
		sr := leReader{b: sec}
		g.rxIE = sr.flag()
		g.txIE = sr.flag()
		if sr.short {
			return nil, fmt.Errorf("vmm: bad checkpoint: short console section")
		}
		g.consoleOut = sr.b
		g.hasConsole = true
	}
	return g, nil
}

// copyPages writes each non-nil page into dst at its page offset; dst
// starts zeroed, so nil pages need no write.
func copyPages(dst []byte, pages []*ckpt.Page) {
	for i, p := range pages {
		if p != nil {
			copy(dst[i*vax.PageSize:], p[:])
		}
	}
}

// applyVirtState installs the decoded virtual-processor, mapping and
// clock state into a VM (shared by ReadCheckpoint and the in-place
// recovery path).
func (k *VMM) applyVirtState(vm *VM, g *generation) {
	vm.vcpu = g.vcpu
	vm.waitDeadline = k.Stats.ClockTicks + g.waitRemain
	k.tickJoin(vm)
}

// ReadCheckpoint creates a new VM in this monitor from a checkpoint
// stream.
func (k *VMM) ReadCheckpoint(name string, r io.Reader) (*VM, error) {
	g, err := decodeGeneration(r)
	if err != nil {
		return nil, err
	}
	memory := make([]byte, g.memSize())
	copyPages(memory, g.pages)
	vm, err := k.CreateVM(VMConfig{
		Name:       name,
		MemBytes:   g.memSize(),
		Image:      memory,
		DiskBlocks: len(g.disk),
	})
	if err != nil {
		return nil, err
	}
	// All of the restored VM's memory just changed underneath any
	// existing mappings: no cached decode can be trusted.
	k.CPU.FlushDecodeCache()
	copyPages(vm.disk.image, g.disk)
	vm.disk.csr, vm.disk.block = g.csr, g.dblock
	vm.disk.addr, vm.disk.count, vm.disk.stat = g.addr, g.count, g.dst
	k.applyVirtState(vm, g)
	if g.hasConsole {
		vm.cons.mu.Lock()
		vm.cons.out.Write(g.consoleOut)
		vm.cons.rxIE, vm.cons.txIE = g.rxIE, g.txIE
		vm.cons.mu.Unlock()
	}
	// Seed the (fresh, null-filled) shadow cache with the restored
	// process: slot 0 claims the VM's current P0 base and demand fills
	// repopulate it, exactly as after a context switch.
	if vm.mapen && vm.p0br != 0 {
		vm.shadow.slots[0].owner = vm.p0br
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
	g, err := decodeGeneration(bytes.NewReader(image))
	if err != nil {
		return err
	}
	if g.memSize() != vm.MemSize {
		return fmt.Errorf("vmm: checkpoint is for a %d KB VM, this VM has %d KB",
			g.memSize()/1024, vm.MemSize/1024)
	}
	// A clone restored before its first dispatch has no shadow tables
	// yet (s == nil below); ensureShadow builds them fresh at the next
	// dispatch, over the privatized frames, so every rebuild step here
	// is skipped rather than performed on nothing.
	s := vm.shadow
	if s != nil && s.released {
		return fmt.Errorf("vmm: shadow frames already released")
	}
	// Full overwrite: every shared frame gets a fresh private page (no
	// copy — the image lands on top, zero pages included).
	if err := k.cowPrivatize(vm); err != nil {
		return err
	}
	for i, p := range g.pages {
		if p == nil {
			p = &zeroPage
		}
		if err := vm.dmaWrite(uint32(i)*vax.PageSize, p[:]); err != nil {
			return err
		}
	}
	k.applyVirtState(vm, g)

	// Rebuild the shadow caches for the restored mapping from scratch:
	// every slot back to null PTEs, slot 0 claiming the restored P0
	// base, and the identity table over the privatized map (all frames
	// now exclusive, so every entry comes back premodified).
	// switchProcess is not used here — it activates the shadow on the
	// live processor, which may be running another VM.
	if s != nil {
		if err := s.reset(k); err != nil {
			return err
		}
	}
	k.CPU.MMU.TBIA()

	// The rolled-back guest restarts its watchdog budget.
	vm.lastProgress = vm.ticks
	return nil
}
