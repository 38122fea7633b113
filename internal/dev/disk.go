package dev

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/vax"
)

// Disk register offsets within the controller's CSR window. The typical
// VAX I/O style: software banging several memory-mapped registers per
// transfer — exactly the pattern Section 4.4.3 of the paper found
// expensive to emulate, motivating the KCALL start-I/O instruction.
const (
	DiskRegCSR   = 0x00 // control/status
	DiskRegBlock = 0x04 // block number
	DiskRegAddr  = 0x08 // physical memory address
	DiskRegCount = 0x0C // byte count
	DiskRegStat  = 0x10 // completion status
	DiskWindow   = 0x20 // window size in bytes

	DiskCSRGo    uint32 = 1 << 0
	DiskCSRFunc  uint32 = 3 << 1 // 1 = read, 2 = write
	DiskCSRIE    uint32 = 1 << 6
	DiskCSRReady uint32 = 1 << 7

	DiskFuncRead  uint32 = 1 << 1
	DiskFuncWrite uint32 = 2 << 1

	DiskStatOK  uint32 = 0
	DiskStatErr uint32 = 1

	// DiskLatency is the simulated cycles between GO and completion.
	DiskLatency = 200
)

// Disk is a block-storage controller with an in-memory image. It is
// reachable two ways: through its memory-mapped CSR window (bare
// machine and the MMIO-emulation baseline), and through the direct
// ReadBlock/WriteBlock methods used by the VMM's KCALL service.
type Disk struct {
	base  uint32
	image []byte

	csr, block, addr, count, stat uint32
	busyFor                       uint64 // cycles until completion
	pendingFunc                   uint32

	Reads  uint64
	Writes uint64
	// RegAccesses counts CSR window references, the quantity the E5
	// experiment compares across I/O virtualization strategies.
	RegAccesses uint64

	// Faults, when set, lets a fault plan fail transfers on the MMIO
	// path (the bare machine consults it as VM -1).
	Faults *fault.Injector
}

// NewDisk creates a disk with the given number of 512-byte blocks whose
// CSR window sits at physical address base.
func NewDisk(base uint32, blocks int) *Disk {
	return &Disk{base: base, image: make([]byte, blocks*vax.PageSize), csr: DiskCSRReady}
}

// Blocks returns the disk size in blocks.
func (d *Disk) Blocks() int { return len(d.image) / vax.PageSize }

// Image returns the backing image (for test setup).
func (d *Disk) Image() []byte { return d.image }

// Window implements cpu.MMIOHandler.
func (d *Disk) Window() (uint32, uint32) { return d.base, DiskWindow }

// LoadReg implements cpu.MMIOHandler.
func (d *Disk) LoadReg(c *cpu.CPU, offset uint32) (uint32, error) {
	d.RegAccesses++
	switch offset &^ 3 {
	case DiskRegCSR:
		return d.csr, nil
	case DiskRegBlock:
		return d.block, nil
	case DiskRegAddr:
		return d.addr, nil
	case DiskRegCount:
		return d.count, nil
	case DiskRegStat:
		return d.stat, nil
	}
	return 0, nil
}

// StoreReg implements cpu.MMIOHandler.
func (d *Disk) StoreReg(c *cpu.CPU, offset uint32, v uint32) error {
	d.RegAccesses++
	switch offset &^ 3 {
	case DiskRegCSR:
		d.csr = d.csr&^DiskCSRIE | v&DiskCSRIE
		if v&DiskCSRGo != 0 && d.csr&DiskCSRReady != 0 {
			d.csr &^= DiskCSRReady
			d.pendingFunc = v & DiskCSRFunc
			d.busyFor = DiskLatency
		}
	case DiskRegBlock:
		d.block = v
	case DiskRegAddr:
		d.addr = v
	case DiskRegCount:
		d.count = v
	case DiskRegStat:
		// read-only
	}
	return nil
}

// Deadline implements cpu.Device: the cycles until an in-flight
// transfer completes, unbounded while the controller is idle.
func (d *Disk) Deadline() uint64 {
	if d.csr&DiskCSRReady != 0 || d.busyFor == 0 {
		return ^uint64(0)
	}
	return d.busyFor
}

// Tick implements cpu.Device: completes an in-flight transfer when its
// latency elapses.
func (d *Disk) Tick(c *cpu.CPU, cycles uint64) {
	if d.csr&DiskCSRReady != 0 || d.busyFor == 0 {
		return
	}
	if cycles < d.busyFor {
		d.busyFor -= cycles
		return
	}
	d.busyFor = 0
	d.stat = d.transfer(c)
	d.csr |= DiskCSRReady
	if d.csr&DiskCSRIE != 0 {
		c.RequestInterrupt(vax.IPLDisk, vax.VecDisk)
	}
}

// transfer moves d.count bytes between the image and physical memory.
func (d *Disk) transfer(c *cpu.CPU) uint32 {
	off := int(d.block) * vax.PageSize
	n := int(d.count)
	if off < 0 || off+n > len(d.image) {
		return DiskStatErr
	}
	if d.Faults != nil && d.Faults.DiskAttempt(-1, 0, d.pendingFunc == DiskFuncWrite) != fault.DiskOK {
		return DiskStatErr
	}
	switch d.pendingFunc {
	case DiskFuncRead:
		d.Reads++
		// DMA bypasses the CPU's store path, so it must drop the
		// decodes it overwrites itself.
		c.InvalidateDecode(d.addr, uint32(n))
		if err := c.Mem.StoreBytes(d.addr, d.image[off:off+n]); err != nil {
			return DiskStatErr
		}
	case DiskFuncWrite:
		d.Writes++
		data, err := c.Mem.LoadBytes(d.addr, uint32(n))
		if err != nil {
			return DiskStatErr
		}
		copy(d.image[off:off+n], data)
	default:
		return DiskStatErr
	}
	return DiskStatOK
}

// ReadBlock copies one block from the disk image into buf; the direct
// path used by the VMM's KCALL start-I/O service.
func (d *Disk) ReadBlock(block uint32, buf []byte) error {
	off := int(block) * vax.PageSize
	if off < 0 || off+len(buf) > len(d.image) {
		return fmt.Errorf("disk: read of block %d out of range", block)
	}
	d.Reads++
	copy(buf, d.image[off:])
	return nil
}

// WriteBlock copies buf into the disk image at the given block.
func (d *Disk) WriteBlock(block uint32, buf []byte) error {
	off := int(block) * vax.PageSize
	if off < 0 || off+len(buf) > len(d.image) {
		return fmt.Errorf("disk: write of block %d out of range", block)
	}
	d.Writes++
	copy(d.image[off:], buf)
	return nil
}

var _ cpu.Device = (*Disk)(nil)
var _ cpu.MMIOHandler = (*Disk)(nil)
