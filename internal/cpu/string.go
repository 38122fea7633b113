package cpu

import (
	"repro/internal/mmu"
	"repro/internal/vax"
)

// VAX character-string and queue instructions: MOVC3, CMPC3, INSQUE and
// REMQUE — the workhorses of VMS system code. The string instructions
// are executed atomically here (the real VAX makes them interruptible
// via PSL<FPD>; with the simulator's instruction-grained interrupts the
// distinction is unobservable to guests).
//
// MOVC3 and CMPC3 work a page run at a time: the bytes up to the nearer
// page end of their two strings (page start, when MOVC3 copies
// backwards). A run whose two pages the TLB grants and whose bytes are
// plain memory (stringRun) is copied or compared in one go, credited
// with the two translations per byte the byte loop would have made, and
// a copied run drops the decodes it overwrites with one invalidation.
// Every other byte takes the byte loop's LoadVirt/StoreVirt step, which
// walks the TLB, takes faults and reaches devices, so partial progress
// before a fault and the restart after it are those of the byte loop.

func (c *CPU) execMOVC3() error {
	lenOp, err := c.decodeOperand(2, false)
	if err != nil {
		return err
	}
	srcOp, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	dstOp, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	n, err := c.readOp(lenOp)
	if err != nil {
		return err
	}
	n &= 0xFFFF
	src, dst := srcOp.addr, dstOp.addr
	if err := c.moveString(src, dst, n, c.psl.Cur()); err != nil {
		return err
	}
	c.Cycles += uint64(n) / 4 // string move microcode cost
	// Architectural register results.
	c.R[0] = 0
	c.R[1] = src + n
	c.R[2] = 0
	c.R[3] = dst + n
	c.R[4] = 0
	c.R[5] = 0
	c.setNZVC(false, true, false, false)
	return nil
}

func (c *CPU) execCMPC3() error {
	lenOp, err := c.decodeOperand(2, false)
	if err != nil {
		return err
	}
	s1Op, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	s2Op, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	n, err := c.readOp(lenOp)
	if err != nil {
		return err
	}
	n &= 0xFFFF
	a1, a2 := s1Op.addr, s2Op.addr
	i, b1, b2, err := c.compareString(a1, a2, n, c.psl.Cur())
	if err != nil {
		return err
	}
	c.Cycles += uint64(i) / 4
	c.R[0] = n - i
	c.R[1] = a1 + i
	c.R[2] = n - i
	c.R[3] = a2 + i
	if i == n {
		c.setNZVC(false, true, false, false)
	} else {
		s1, s2 := int32(int8(b1)), int32(int8(b2))
		c.setNZVC(s1 < s2, false, false, b1 < b2)
	}
	return nil
}

// moveString copies n bytes from src to dst as MOVC3's byte loop does,
// a page run at a time. It chooses the direction so overlapping moves
// behave like a memmove, as the architecture requires: backwards when
// the destination starts inside the source.
func (c *CPU) moveString(src, dst, n uint32, mode vax.Mode) error {
	back := dst > src && dst < src+n
	for done := uint32(0); done < n; {
		// The next run covers offsets [lo, lo+r).
		var lo, r uint32
		if back {
			hi := n - done - 1
			r = min(n-done, (src+hi)&vax.PageMask+1, (dst+hi)&vax.PageMask+1)
			lo = hi + 1 - r
		} else {
			lo = done
			r = min(n-done, pageLeft(src+lo), pageLeft(dst+lo))
		}
		k := uint32(1) // bytes to move one at a time before the next try
		if spa, dpa, ok := c.stringRun(src+lo, mmu.Read, dst+lo, mmu.Write, r, mode); ok {
			// Overlapping physical ranges go byte by byte: one frame
			// mapped at two VAs can overlap where the virtual ranges do
			// not, and a forward byte copy is not a memmove.
			if spa+r <= dpa || dpa+r <= spa {
				s, _ := c.Mem.Window(spa, r)
				d, _ := c.Mem.Window(dpa, r)
				copy(d, s)
				c.MMU.CountFastHits(2 * uint64(r))
				c.invalidateStore(dpa, r)
				done += r
				continue
			}
			k = r
		}
		for ; k > 0; k-- {
			i := done
			if back {
				i = n - done - 1
			}
			b, err := c.LoadVirt(src+i, 1, mode)
			if err != nil {
				return err
			}
			if err := c.StoreVirt(dst+i, 1, b, mode); err != nil {
				return err
			}
			done++
		}
	}
	return nil
}

// compareString compares n bytes at a1 and a2 as CMPC3's byte loop
// does, a page run at a time, and returns the offset of the first
// difference (n if none) and the two bytes there.
func (c *CPU) compareString(a1, a2, n uint32, mode vax.Mode) (i, b1, b2 uint32, err error) {
	for i < n {
		r := min(n-i, pageLeft(a1+i), pageLeft(a2+i))
		if pa1, pa2, ok := c.stringRun(a1+i, mmu.Read, a2+i, mmu.Read, r, mode); ok {
			// The byte loop reads both strings through the first
			// difference and stops there.
			x, _ := c.Mem.Window(pa1, r)
			y, _ := c.Mem.Window(pa2, r)
			j := uint32(mismatch(x, y))
			c.MMU.CountFastHits(2 * uint64(min(j+1, r)))
			i += j
			if j < r {
				return i, uint32(x[j]), uint32(y[j]), nil
			}
			continue
		}
		if b1, err = c.LoadVirt(a1+i, 1, mode); err != nil {
			return
		}
		if b2, err = c.LoadVirt(a2+i, 1, mode); err != nil {
			return
		}
		if b1 != b2 {
			return
		}
		i++
	}
	return
}

// pageLeft is the number of bytes from va to the end of its page.
func pageLeft(va uint32) uint32 { return vax.PageSize - va&vax.PageMask }

// stringRun probes a string run without counting: the r bytes at va1
// and at va2, each range on one page. It returns their physical
// addresses, and ok when the TLB grants both pages (acc1 and acc2) and
// both ranges are plain memory.
func (c *CPU) stringRun(va1 uint32, acc1 mmu.Access, va2 uint32, acc2 mmu.Access, r uint32, mode vax.Mode) (pa1, pa2 uint32, ok bool) {
	pa1, ok1 := c.MMU.Lookup(va1, acc1, mode)
	pa2, ok2 := c.MMU.Lookup(va2, acc2, mode)
	return pa1, pa2, ok1 && ok2 && c.plain(pa1, r) && c.plain(pa2, r)
}

// mismatch returns the index of the first byte where x and y (of one
// length) differ, or their length.
func mismatch(x, y []byte) int {
	for i := range x {
		if x[i] != y[i] {
			return i
		}
	}
	return len(x)
}

// Queue entries are pairs of longwords: forward link at offset 0,
// backward link at offset 4; links hold absolute addresses.

func (c *CPU) execINSQUE() error {
	entryOp, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	predOp, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	entry, pred := entryOp.addr, predOp.addr
	succ, err := c.LoadLong(pred)
	if err != nil {
		return err
	}
	// entry.flink = succ; entry.blink = pred
	if err := c.StoreLong(entry, succ); err != nil {
		return err
	}
	if err := c.StoreLong(entry+4, pred); err != nil {
		return err
	}
	// succ.blink = entry; pred.flink = entry
	if err := c.StoreLong(succ+4, entry); err != nil {
		return err
	}
	if err := c.StoreLong(pred, entry); err != nil {
		return err
	}
	// Z set when the entry is now the only one (its links are equal):
	// the queue was empty before the insertion.
	c.setNZVC(false, succ == pred, false, false)
	return nil
}

func (c *CPU) execREMQUE() error {
	entryOp, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	addrOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	entry := entryOp.addr
	flink, err := c.LoadLong(entry)
	if err != nil {
		return err
	}
	blink, err := c.LoadLong(entry + 4)
	if err != nil {
		return err
	}
	// V set when the queue was empty (nothing to remove).
	if flink == entry {
		c.setNZVC(false, false, true, true)
		return c.writeOp(addrOp, entry)
	}
	if err := c.StoreLong(blink, flink); err != nil {
		return err
	}
	if err := c.StoreLong(flink+4, blink); err != nil {
		return err
	}
	if err := c.writeOp(addrOp, entry); err != nil {
		return err
	}
	// Z set when the queue is now empty.
	c.setNZVC(false, flink == blink, false, false)
	return nil
}
