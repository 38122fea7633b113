package cpu

import (
	"repro/internal/mmu"
	"repro/internal/vax"
)

// mmuAccess converts a write flag to an MMU access kind.
func mmuAccess(write bool) mmu.Access {
	if write {
		return mmu.Write
	}
	return mmu.Read
}

// Virtual memory access helpers. All accesses translate through the MMU
// at the processor's current mode (or an explicit mode for the few
// instructions that reference another mode's context) and then hit
// either a memory-mapped device window or physical memory. Multi-byte
// accesses that straddle a page boundary translate each page separately,
// as the hardware does.

// device returns the device whose register window overlaps the n
// physical bytes at pa, and the window's base; nil when none does.
func (c *CPU) device(pa, n uint32) (MMIOHandler, uint32) {
	for _, h := range c.mmio {
		base, size := h.Window()
		if pa < base+size && pa+n > base {
			return h, base
		}
	}
	return nil, 0
}

// plain reports whether the n physical bytes at pa are ordinary memory:
// inside physical memory and clear of every device window. Any other
// access belongs to the physLoad/physStore path, which reaches the
// device or takes the bus error.
func (c *CPU) plain(pa, n uint32) bool {
	h, _ := c.device(pa, n)
	return h == nil && c.Mem.Contains(pa, n)
}

func (c *CPU) physLoadByte(pa uint32) (byte, error) {
	if h, base := c.device(pa, 1); h != nil {
		v, err := h.LoadReg(c, pa-base)
		return byte(v), err
	}
	return c.Mem.LoadByte(pa)
}

func (c *CPU) physStoreByte(pa uint32, v byte) error {
	if h, base := c.device(pa, 1); h != nil {
		return h.StoreReg(c, pa-base, uint32(v))
	}
	c.invalidateStore(pa, 1)
	return c.Mem.StoreByte(pa, v)
}

// physLoadLong reads a longword, routing device windows through the
// device handler as a single register access.
func (c *CPU) physLoadLong(pa uint32) (uint32, error) {
	if h, base := c.device(pa, 1); h != nil {
		return h.LoadReg(c, pa-base)
	}
	return c.Mem.LoadLong(pa)
}

func (c *CPU) physStoreLong(pa uint32, v uint32) error {
	if h, base := c.device(pa, 1); h != nil {
		return h.StoreReg(c, pa-base, v)
	}
	// A longword store stays within one page (callers split straddling
	// accesses), as invalidateStore requires.
	c.invalidateStore(pa, 4)
	return c.Mem.StoreLong(pa, v)
}

// LoadVirt reads size bytes (1, 2 or 4) at va as mode, little-endian.
func (c *CPU) LoadVirt(va uint32, size int, mode vax.Mode) (uint32, error) {
	// Fast path: within one page and aligned enough for a direct load.
	if int(va&vax.PageMask)+size <= vax.PageSize {
		pa, ok := c.MMU.TranslateFast(va, mmu.Read, mode)
		if !ok {
			var err error
			pa, err = c.MMU.Translate(va, mmu.Read, mode)
			if err != nil {
				return 0, err
			}
		}
		switch size {
		case 1:
			b, err := c.physLoadByte(pa)
			return uint32(b), err
		case 4:
			if pa&3 == 0 {
				return c.physLoadLong(pa)
			}
		}
		var out uint32
		for i := 0; i < size; i++ {
			b, err := c.physLoadByte(pa + uint32(i))
			if err != nil {
				return 0, err
			}
			out |= uint32(b) << (8 * i)
		}
		return out, nil
	}
	// Page-straddling: byte by byte.
	var out uint32
	for i := 0; i < size; i++ {
		pa, err := c.MMU.Translate(va+uint32(i), mmu.Read, mode)
		if err != nil {
			return 0, err
		}
		b, err := c.physLoadByte(pa)
		if err != nil {
			return 0, err
		}
		out |= uint32(b) << (8 * i)
	}
	return out, nil
}

// StoreVirt writes size bytes (1, 2 or 4) at va as mode.
func (c *CPU) StoreVirt(va uint32, size int, v uint32, mode vax.Mode) error {
	if int(va&vax.PageMask)+size <= vax.PageSize {
		pa, ok := c.MMU.TranslateFast(va, mmu.Write, mode)
		if !ok {
			var err error
			pa, err = c.MMU.Translate(va, mmu.Write, mode)
			if err != nil {
				return err
			}
		}
		switch size {
		case 1:
			return c.physStoreByte(pa, byte(v))
		case 4:
			if pa&3 == 0 {
				return c.physStoreLong(pa, v)
			}
		}
		for i := 0; i < size; i++ {
			if err := c.physStoreByte(pa+uint32(i), byte(v>>(8*i))); err != nil {
				return err
			}
		}
		return nil
	}
	// Page-straddling: every byte is translated before any is stored,
	// so a fault on the second page leaves memory as it was and the
	// restarted instruction cannot read its own half-written result.
	var pas [4]uint32
	for i := 0; i < size; i++ {
		pa, err := c.MMU.Translate(va+uint32(i), mmu.Write, mode)
		if err != nil {
			return err
		}
		pas[i] = pa
	}
	for i, pa := range pas[:size] {
		if err := c.physStoreByte(pa, byte(v>>(8*i))); err != nil {
			return err
		}
	}
	return nil
}

// LoadLong is LoadVirt at the current mode, 4 bytes.
func (c *CPU) LoadLong(va uint32) (uint32, error) {
	return c.LoadVirt(va, 4, c.psl.Cur())
}

// StoreLong is StoreVirt at the current mode, 4 bytes.
func (c *CPU) StoreLong(va uint32, v uint32) error {
	return c.StoreVirt(va, 4, v, c.psl.Cur())
}

// Push pushes a longword on the active stack.
func (c *CPU) Push(v uint32) error {
	sp := c.R[RegSP] - 4
	if err := c.StoreVirt(sp, 4, v, c.psl.Cur()); err != nil {
		return err
	}
	c.R[RegSP] = sp
	return nil
}

// Pop pops a longword from the active stack.
func (c *CPU) Pop() (uint32, error) {
	v, err := c.LoadVirt(c.R[RegSP], 4, c.psl.Cur())
	if err != nil {
		return 0, err
	}
	c.R[RegSP] += 4
	return v, nil
}

// fetchByte reads the next instruction-stream byte and advances PC.
func (c *CPU) fetchByte() (byte, error) {
	v, err := c.LoadVirt(c.R[RegPC], 1, c.psl.Cur())
	if err != nil {
		return 0, err
	}
	c.R[RegPC]++
	return byte(v), nil
}

func (c *CPU) fetchWord() (uint16, error) {
	v, err := c.LoadVirt(c.R[RegPC], 2, c.psl.Cur())
	if err != nil {
		return 0, err
	}
	c.R[RegPC] += 2
	return uint16(v), nil
}

func (c *CPU) fetchLong() (uint32, error) {
	v, err := c.LoadVirt(c.R[RegPC], 4, c.psl.Cur())
	if err != nil {
		return 0, err
	}
	c.R[RegPC] += 4
	return v, nil
}
