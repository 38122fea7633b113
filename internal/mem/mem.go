// Package mem provides the physical memory of a simulated VAX system:
// byte-addressable, little-endian storage with page-frame bookkeeping.
// A bus error on a nonexistent physical address is reported as an error
// value so the CPU can turn it into a machine check (or, inside a VM,
// the VMM can halt the VM — paper Section 5, "Hardware errors").
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/vax"
)

// Memory is a flat physical address space.
type Memory struct {
	data []byte
}

// BusError reports a reference to nonexistent physical memory.
type BusError struct {
	Addr  uint32
	Write bool
}

func (e *BusError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("bus error: %s of nonexistent physical address %#x", op, e.Addr)
}

// New creates a memory of the given size, rounded up to a whole number
// of pages.
func New(size uint32) *Memory {
	pages := (size + vax.PageSize - 1) / vax.PageSize
	if pages == 0 {
		pages = 1
	}
	size = pages * vax.PageSize
	pool.mu.Lock()
	if bufs := pool.bufs[size]; len(bufs) > 0 {
		buf := bufs[len(bufs)-1]
		pool.bufs[size] = bufs[:len(bufs)-1]
		pool.mu.Unlock()
		return &Memory{data: buf}
	}
	pool.mu.Unlock()
	return &Memory{data: make([]byte, size)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.data)) }

// Pages returns the number of page frames.
func (m *Memory) Pages() uint32 { return uint32(len(m.data)) / vax.PageSize }

// Contains reports whether [addr, addr+n) lies within memory.
func (m *Memory) Contains(addr, n uint32) bool {
	return addr <= m.Size() && n <= m.Size()-addr
}

// LoadByte reads one byte of physical memory.
func (m *Memory) LoadByte(addr uint32) (byte, error) {
	if !m.Contains(addr, 1) {
		return 0, &BusError{Addr: addr}
	}
	return m.data[addr], nil
}

// StoreByte writes one byte of physical memory.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	if !m.Contains(addr, 1) {
		return &BusError{Addr: addr, Write: true}
	}
	m.data[addr] = v
	return nil
}

// LoadWord reads a little-endian 16-bit word.
func (m *Memory) LoadWord(addr uint32) (uint16, error) {
	if !m.Contains(addr, 2) {
		return 0, &BusError{Addr: addr}
	}
	return binary.LittleEndian.Uint16(m.data[addr:]), nil
}

// StoreWord writes a little-endian 16-bit word.
func (m *Memory) StoreWord(addr uint32, v uint16) error {
	if !m.Contains(addr, 2) {
		return &BusError{Addr: addr, Write: true}
	}
	binary.LittleEndian.PutUint16(m.data[addr:], v)
	return nil
}

// LoadLong reads a little-endian 32-bit longword.
func (m *Memory) LoadLong(addr uint32) (uint32, error) {
	if !m.Contains(addr, 4) {
		return 0, &BusError{Addr: addr}
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

// StoreLong writes a little-endian 32-bit longword.
func (m *Memory) StoreLong(addr uint32, v uint32) error {
	if !m.Contains(addr, 4) {
		return &BusError{Addr: addr, Write: true}
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return nil
}

// LoadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) LoadBytes(addr, n uint32) ([]byte, error) {
	if !m.Contains(addr, n) {
		return nil, &BusError{Addr: addr}
	}
	out := make([]byte, n)
	copy(out, m.data[addr:addr+n])
	return out, nil
}

// LoadBytesInto copies len(b) bytes starting at addr into b without
// allocating (for steady-state I/O paths).
func (m *Memory) LoadBytesInto(addr uint32, b []byte) error {
	if !m.Contains(addr, uint32(len(b))) {
		return &BusError{Addr: addr}
	}
	copy(b, m.data[addr:])
	return nil
}

// StoreBytes copies b into memory starting at addr.
func (m *Memory) StoreBytes(addr uint32, b []byte) error {
	if !m.Contains(addr, uint32(len(b))) {
		return &BusError{Addr: addr, Write: true}
	}
	copy(m.data[addr:], b)
	return nil
}

// Window returns the live backing slice for [addr, addr+n): no copy,
// valid until Release. Intended for bulk scanners (the COW alias sweep
// walks the shadow tables' spans) where per-longword Load calls would
// pay a bounds check and a decode per entry.
func (m *Memory) Window(addr, n uint32) ([]byte, error) {
	if !m.Contains(addr, n) {
		return nil, &BusError{Addr: addr}
	}
	return m.data[addr : addr+n : addr+n], nil
}

// CopyPage copies page frame src into page frame dst — the data
// movement of one COW break.
func (m *Memory) CopyPage(dst, src uint32) error {
	da, sa := dst*vax.PageSize, src*vax.PageSize
	if !m.Contains(da, vax.PageSize) {
		return &BusError{Addr: da, Write: true}
	}
	if !m.Contains(sa, vax.PageSize) {
		return &BusError{Addr: sa}
	}
	copy(m.data[da:da+vax.PageSize], m.data[sa:sa+vax.PageSize])
	return nil
}

// ZeroPage clears the page frame pfn.
func (m *Memory) ZeroPage(pfn uint32) error {
	return m.ZeroRun(pfn, 1)
}

// ZeroRun clears n consecutive page frames starting at pfn in one
// memclr — the bulk path behind page-frame allocation, where a
// per-byte loop shows up directly in VM-creation latency.
func (m *Memory) ZeroRun(pfn, n uint32) error {
	addr := pfn * vax.PageSize
	if !m.Contains(addr, n*vax.PageSize) {
		return &BusError{Addr: addr, Write: true}
	}
	clear(m.data[addr : addr+n*vax.PageSize])
	return nil
}

// FillLong fills n consecutive longwords starting at addr (which must
// be longword-aligned) with v. This is the bulk path behind shadow
// page-table initialization and clear-on-reuse: filling a 2048-entry
// process slot one StoreLong at a time costs four bounds checks and an
// encode per entry, while FillLong seeds 4 bytes and doubles.
func (m *Memory) FillLong(addr, n, v uint32) error {
	if n == 0 {
		return nil
	}
	if addr&3 != 0 || !m.Contains(addr, n*4) {
		return &BusError{Addr: addr, Write: true}
	}
	region := m.data[addr : addr+n*4]
	binary.LittleEndian.PutUint32(region, v)
	for filled := 4; filled < len(region); filled *= 2 {
		copy(region[filled:], region[:filled])
	}
	return nil
}

// The backing-store pool. A monitor's physical memory is by far the
// largest allocation in the simulator (megabytes per VMM instance), and the
// experiment harness creates and discards machines by the hundred; the
// pool recycles those buffers. Buffers enter the pool fully zeroed
// (Release zeroes the dirty extent the caller declares), so New can
// hand them out without touching every byte — an invariant maintained
// by induction: fresh make() is zero, and honest dirty extents keep
// pooled buffers zero.
var pool = struct {
	mu   sync.Mutex
	bufs map[uint32][][]byte
}{bufs: make(map[uint32][][]byte)}

// poolMaxPerSize bounds how many buffers of one size the pool retains;
// beyond that, Release lets the garbage collector have them.
const poolMaxPerSize = 4

// Release returns the memory's backing store to the pool, zeroing the
// first dirty bytes (rounded up internally as needed). The caller
// asserts that no byte at or beyond dirty was ever written; a false
// assertion corrupts a future machine, so callers must be conservative.
// After Release the Memory is empty: every access returns a BusError.
// Release is idempotent.
func (m *Memory) Release(dirty uint32) {
	buf := m.data
	if buf == nil {
		return
	}
	m.data = nil
	if dirty > uint32(len(buf)) {
		dirty = uint32(len(buf))
	}
	clear(buf[:dirty])
	size := uint32(len(buf))
	pool.mu.Lock()
	if len(pool.bufs[size]) < poolMaxPerSize {
		pool.bufs[size] = append(pool.bufs[size], buf)
	}
	pool.mu.Unlock()
}
