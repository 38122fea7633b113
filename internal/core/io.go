package core

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Virtual I/O. The production design is the explicit start-I/O
// interface of Section 4.4.3: the VMOS writes the KCALL register with a
// function code in R0 and arguments in R1..R3; the VMM performs the
// whole operation in one trap and posts a virtual completion interrupt.
// The baseline alternative — emulating a memory-mapped controller
// register by register — is implemented in emulateMMIO below.

// KCALL function codes (the VM/VMM communication protocol; Section 5
// footnote 11: the same mechanism serves other system-management
// purposes, here uptime registration).
const (
	KCallConsolePut  = 1 // R1 = character
	KCallConsoleGet  = 2 // result: R1 = character (0 if none)
	KCallDiskRead    = 3 // R1 = block, R2 = VM-physical buffer
	KCallDiskWrite   = 4 // R1 = block, R2 = VM-physical buffer
	KCallUptime      = 5 // result: R1 = ticks
	KCallSetUptime   = 6 // R1 = VM-physical uptime cell (0 disables)
	KCallStatusOK    = 0
	KCallStatusError = 1
)

// kcall services one start-I/O request. Results return in the VM's R0
// (status) and R1.
func (k *VMM) kcall(vm *VM, _ uint32) {
	c := k.CPU
	fn := c.R[0]
	status := uint32(KCallStatusOK)
	switch fn {
	case KCallConsolePut:
		vm.cons.Put(byte(c.R[1]))
		k.noteProgress(vm)
	case KCallConsoleGet:
		c.R[1] = vm.cons.Get()
		k.noteProgress(vm)
	case KCallDiskRead, KCallDiskWrite:
		status = k.kcallDisk(vm, fn == KCallDiskWrite)
		if vm.halted {
			return
		}
	case KCallUptime:
		c.R[1] = uint32(vm.ticks)
	case KCallSetUptime:
		vm.uptime = c.R[1]
		k.tickJoin(vm)
	default:
		vm.Stats.UnknownKCALLs++
		k.event(vm, trace.EvUnknownKCALL, fn, "")
		status = KCallStatusError
	}
	c.R[0] = status
}

// kcallDisk services a KCALL disk transfer with the recovery ladder of
// the paper's hardware-error policy: transient device errors are
// retried with exponential backoff up to maxDiskRetries attempts;
// errors that survive — and bus errors on the DMA range — surface to
// the VM as virtual machine checks; a guest software error (block out
// of range) is just a status error.
func (k *VMM) kcallDisk(vm *VM, write bool) uint32 {
	c := k.CPU
	block, buf := c.R[1], c.R[2]
	if !vm.contains(buf, vax.PageSize) {
		k.haltVM(vm, "KCALL disk buffer outside VM memory")
		return KCallStatusError
	}
	if k.faults != nil && k.faults.BusErrorHit(vm.ID, k.Stats.ClockTicks, buf, vax.PageSize) {
		k.machineCheck(vm, MCheckBusError, buf)
		return KCallStatusError
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = k.diskTransfer(vm, write, block, buf, attempt)
		if err == nil || err == errOutOfRange || err == errDiskPermanent {
			break
		}
		if vm.halted { // COW break ran out of physical memory mid-DMA
			return KCallStatusError
		}
		if attempt+1 >= maxDiskRetries {
			break
		}
		vm.Stats.DiskRetries++
		if vm.rec != nil {
			k.event(vm, trace.EvKCallRetry, uint32(attempt+1), fmt.Sprintf("block %d: %v", block, err))
		}
		k.charge(diskRetryCost << uint(attempt))
	}
	switch err {
	case nil:
		k.noteProgress(vm)
		vm.irqs.Post(vax.IPLDisk, vax.VecDisk)
		return KCallStatusOK
	case errOutOfRange:
		// The guest asked for a block that does not exist: its own
		// software error, not a hardware condition.
		return KCallStatusError
	default:
		k.machineCheck(vm, MCheckDiskError, block)
		return KCallStatusError
	}
}

// diskTransfer performs one attempt of a KCALL disk transfer through
// the VMM's scratch page (no per-call allocation). buf is the VM-
// physical DMA address; dmaRead/dmaWrite handle the frame walk (and
// COW breaks) for cloned VMs.
func (k *VMM) diskTransfer(vm *VM, write bool, block, buf uint32, attempt int) error {
	if k.faults != nil {
		switch k.faults.DiskAttempt(vm.ID, attempt, write) {
		case fault.DiskTransient:
			return errDiskTransient
		case fault.DiskPermanent:
			return errDiskPermanent
		}
	}
	if write {
		if err := vm.dmaRead(buf, k.ioBuf); err != nil {
			return err
		}
		return vm.disk.writeBlock(block, k.ioBuf)
	}
	if err := vm.disk.readBlock(block, k.ioBuf); err != nil {
		return err
	}
	// DMA into guest memory: dmaWrite drops the cached decodes it
	// overlaps and breaks COW sharing page by page.
	return vm.dmaWrite(buf, k.ioBuf)
}

// --- virtual disk ---

// vDisk is a per-VM virtual disk. Under KCALL I/O only the block
// methods are used; under MMIO emulation the VMM also models its
// controller registers (same layout as dev.Disk). Like VM memory, the
// image is copy-on-write under cloning — at clone time the image
// freezes into an immutable shared base, and the first write (by the
// source or any clone) materializes a private copy — so a thousand
// clones of one golden image share one disk's worth of bytes.
type vDisk struct {
	image []byte // private, mutable image; nil while frozen
	base  []byte // immutable backing shared with clones; never written

	// Controller registers for the MMIO-emulation baseline.
	csr, block, addr, count, stat uint32

	Reads, Writes uint64
}

func newVDisk(blocks int) *vDisk {
	return &vDisk{image: make([]byte, blocks*vax.PageSize), csr: devCSRReady}
}

// data returns the current image bytes for reading only.
func (d *vDisk) data() []byte {
	if d.image != nil {
		return d.image
	}
	return d.base
}

// freeze demotes the private image (if any) to the shared immutable
// base and returns it, so a clone can reference the same bytes.
func (d *vDisk) freeze() []byte {
	if d.image != nil {
		d.base = d.image
		d.image = nil
	}
	return d.base
}

// materialize ensures the disk has a private mutable image, copying the
// shared base on the first write after a freeze.
func (d *vDisk) materialize() []byte {
	if d.image == nil {
		d.image = append([]byte(nil), d.base...)
		d.base = nil
	}
	return d.image
}

// clone builds a new disk sharing this one's (frozen) image bytes, with
// the controller registers copied and the transfer counters fresh.
func (d *vDisk) clone() *vDisk {
	return &vDisk{base: d.freeze(), csr: d.csr, block: d.block,
		addr: d.addr, count: d.count, stat: d.stat}
}

// Image exposes the disk image for loading test data. The caller may
// mutate it, so a frozen disk materializes its private copy first.
func (d *vDisk) Image() []byte { return d.materialize() }

func (d *vDisk) reset() {
	d.csr, d.block, d.addr, d.count, d.stat = devCSRReady, 0, 0, 0, 0
}

func (d *vDisk) readBlock(block uint32, buf []byte) error {
	data := d.data()
	off := int(block) * vax.PageSize
	if off < 0 || off+len(buf) > len(data) {
		return errOutOfRange
	}
	d.Reads++
	copy(buf, data[off:])
	return nil
}

func (d *vDisk) writeBlock(block uint32, buf []byte) error {
	if off := int(block) * vax.PageSize; off < 0 || off+len(buf) > len(d.data()) {
		return errOutOfRange
	}
	image := d.materialize()
	off := int(block) * vax.PageSize
	d.Writes++
	copy(image[off:], buf)
	return nil
}

type rangeErr struct{}

func (rangeErr) Error() string { return "vdisk: block out of range" }

var errOutOfRange = rangeErr{}

// devErr is an injected device error (comparable, like errOutOfRange).
type devErr string

func (e devErr) Error() string { return string(e) }

const (
	errDiskTransient devErr = "vdisk: transient device error"
	errDiskPermanent devErr = "vdisk: permanent device error"
)

// Virtual controller register offsets mirror dev.Disk.
const (
	devRegCSR   = 0x00
	devRegBlock = 0x04
	devRegAddr  = 0x08
	devRegCount = 0x0C
	devRegStat  = 0x10

	devCSRGo    uint32 = 1 << 0
	devCSRFunc  uint32 = 3 << 1
	devCSRIE    uint32 = 1 << 6
	devCSRReady uint32 = 1 << 7

	devFuncRead  uint32 = 1 << 1
	devFuncWrite uint32 = 2 << 1
)

// regRead/regWrite model the controller for the MMIO baseline. GO
// performs the transfer immediately (the trap itself already models
// the latency) and posts a completion interrupt.
func (k *VMM) diskRegRead(vm *VM, off uint32) uint32 {
	d := vm.disk
	switch off &^ 3 {
	case devRegCSR:
		return d.csr
	case devRegBlock:
		return d.block
	case devRegAddr:
		return d.addr
	case devRegCount:
		return d.count
	case devRegStat:
		return d.stat
	}
	return 0
}

func (k *VMM) diskRegWrite(vm *VM, off, v uint32) {
	d := vm.disk
	switch off &^ 3 {
	case devRegCSR:
		d.csr = d.csr&^devCSRIE | v&devCSRIE
		if v&devCSRGo == 0 {
			return
		}
		d.stat = KCallStatusError
		// The MMIO baseline has no retry ladder: an injected device or
		// bus error simply leaves the error status for the driver.
		injected := k.faults != nil &&
			(k.faults.DiskAttempt(vm.ID, 0, v&devCSRFunc == devFuncWrite) != fault.DiskOK ||
				k.faults.BusErrorHit(vm.ID, k.Stats.ClockTicks, d.addr, d.count))
		if vm.contains(d.addr, d.count) && !injected && d.count <= vax.PageSize {
			buf := k.ioBuf[:d.count]
			switch v & devCSRFunc {
			case devFuncRead:
				n := min32len(buf, d)
				clear(buf[n:]) // a disk shorter than count reads as zeros past its end
				if d.readBlock(d.block, buf[:n]) == nil {
					if vm.dmaWrite(d.addr, buf) == nil {
						d.stat = KCallStatusOK
					}
				}
			case devFuncWrite:
				if vm.dmaRead(d.addr, buf) == nil {
					if d.writeBlock(d.block, buf) == nil {
						d.stat = KCallStatusOK
					}
				}
			}
		}
		if d.csr&devCSRIE != 0 {
			vm.irqs.Post(vax.IPLDisk, vax.VecDisk)
		}
	case devRegBlock:
		d.block = v
	case devRegAddr:
		d.addr = v
	case devRegCount:
		d.count = v
	}
}

func min32len(buf []byte, d *vDisk) int {
	if data := d.data(); len(buf) > len(data) {
		return len(data)
	}
	return len(buf)
}

// --- MMIO instruction emulation ---

// emulateMMIO emulates one guest instruction that references the
// virtual disk controller's register window. This is the expensive
// path the paper measured against (Section 4.4.3): the VMM must parse
// the instruction stream itself — precisely the work the VM-emulation
// trap was designed to avoid — so only the MOVL forms a device driver
// uses are recognized.
func (k *VMM) emulateMMIO(vm *VM, faultVA uint32, gpte vax.PTE) {
	c := k.CPU
	vm.Stats.MMIOEmuls++
	k.charge(cpu.CostVMMMMIOEmul)
	pc := c.PC()
	mode := c.VMPSL.Cur()

	readByte := func(at uint32) (byte, bool) {
		pa, gf := k.guestTranslate(vm, at, false, mode)
		if gf != nil || vm.halted {
			return 0, false
		}
		var b [1]byte
		err := vm.dmaRead(pa, b[:])
		return b[0], err == nil
	}
	readLong := func(at uint32) (uint32, bool) {
		var v uint32
		for i := uint32(0); i < 4; i++ {
			b, ok := readByte(at + i)
			if !ok {
				return 0, false
			}
			v |= uint32(b) << (8 * i)
		}
		return v, true
	}

	fail := func(msg string) { k.haltVM(vm, "MMIO emulation: "+msg) }

	op, ok := readByte(pc)
	if !ok || op != byte(vax.OpMOVL) {
		fail("unsupported instruction")
		return
	}
	// Decode two operand specifiers, supporting registers, short
	// literals, and absolute (@#) addresses.
	type opnd struct {
		isReg bool
		reg   int
		isLit bool
		lit   uint32
		isAbs bool
		abs   uint32
	}
	at := pc + 1
	decode := func() (opnd, bool) {
		spec, ok := readByte(at)
		if !ok {
			return opnd{}, false
		}
		at++
		switch {
		case spec < 0x40:
			return opnd{isLit: true, lit: uint32(spec)}, true
		case spec>>4 == 5:
			return opnd{isReg: true, reg: int(spec & 0xF)}, true
		case spec == 0x8F:
			v, ok := readLong(at)
			at += 4
			return opnd{isLit: true, lit: v}, ok
		case spec == 0x9F:
			v, ok := readLong(at)
			at += 4
			return opnd{isAbs: true, abs: v}, ok
		}
		return opnd{}, false
	}
	src, ok1 := decode()
	dst, ok2 := decode()
	if !ok1 || !ok2 {
		fail("unsupported operand")
		return
	}

	devOff := func(va uint32) (uint32, bool) {
		pa, gf := k.guestTranslate(vm, va, false, mode)
		if gf != nil || vm.halted {
			return 0, false
		}
		if pa >= VMDiskBase && pa < VMDiskBase+vax.PageSize {
			return pa - VMDiskBase, true
		}
		return 0, false
	}

	var val uint32
	switch {
	case src.isLit:
		val = src.lit
	case src.isReg:
		val = c.R[src.reg]
	case src.isAbs:
		if off, isDev := devOff(src.abs); isDev {
			val = k.diskRegRead(vm, off)
		} else {
			fail("source not a device register")
			return
		}
	}
	switch {
	case dst.isReg:
		c.R[dst.reg] = val
	case dst.isAbs:
		if off, isDev := devOff(dst.abs); isDev {
			k.diskRegWrite(vm, off, val)
		} else {
			fail("destination not a device register")
			return
		}
	default:
		fail("unsupported destination")
		return
	}
	if vm.halted {
		return
	}
	c.SetPC(at)
	k.resumeVM(vm)
	k.deliverPendingIRQs(vm)
}

// --- virtual console ---

// vConsole is the per-VM console, reached through the console IPRs or
// the KCALL console functions. It is the one VM-side surface that host
// code legitimately touches from another goroutine (feeding input or
// reading output while an engine runs), so it carries its own mutex —
// contention-free in practice: the owning VM and the host rarely meet.
type vConsole struct {
	mu   sync.Mutex
	out  bytes.Buffer
	in   []byte
	rxIE bool
	txIE bool
}

func (t *vConsole) Output() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.out.String()
}

func (t *vConsole) Feed(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.in = append(t.in, s...)
}

func (t *vConsole) Put(b byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.out.WriteByte(b)
}

func (t *vConsole) Get() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.in) == 0 {
		return 0
	}
	b := t.in[0]
	t.in = t.in[1:]
	return uint32(b)
}

func (t *vConsole) RXCS() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var v uint32
	if len(t.in) > 0 {
		v |= vax.ConsoleReady
	}
	if t.rxIE {
		v |= vax.ConsoleIE
	}
	return v
}

func (t *vConsole) SetCSR(reg vax.IPR, v uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ie := v&vax.ConsoleIE != 0
	if reg == vax.IPRRXCS {
		t.rxIE = ie
	} else {
		t.txIE = ie
	}
}
