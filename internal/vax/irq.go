package vax

import "math/bits"

// IRQs is a processor's table of pending interrupts: one SCB vector per
// interrupt level, 0 for none, and a summary mask whose bit l is set
// exactly when level l holds a vector. The bare processor and every
// virtual machine keep one. With the mask, and the software interrupt
// summary register that already is one, finding the interrupt to take
// is a mask and a leading-zero count instead of a 31-level scan.
type IRQs struct {
	vec  [32]Vector
	mask uint32
}

// sisrMask bounds software interrupt requests to levels 1..15.
const sisrMask = (uint32(1)<<(IPLSoftwareMax+1) - 1) &^ 1

// Post makes vec pending at level, replacing any vector already there.
// A level of 32 or more is ignored; a zero vector withdraws the level.
func (q *IRQs) Post(level uint8, vec Vector) {
	if level >= 32 {
		return
	}
	q.vec[level] = vec
	if vec != 0 {
		q.mask |= 1 << level
	} else {
		q.mask &^= 1 << level
	}
}

// Clear withdraws the interrupt pending at level.
func (q *IRQs) Clear(level uint8) { q.Post(level, 0) }

// Above returns the highest level above ipl with an interrupt pending,
// counting the software interrupt requests in sisr at levels 1..15, or
// 0 if there is none.
func (q *IRQs) Above(ipl uint8, sisr uint32) uint8 {
	m := q.mask | sisr&sisrMask
	m &^= (uint32(2) << ipl) - 1 // keep bits strictly above ipl
	if m == 0 {
		return 0
	}
	return uint8(31 - bits.LeadingZeros32(m))
}

// Take removes the interrupt pending at level, a level Above returned,
// and returns its vector: the device vector if one is posted there,
// else the software interrupt's, whose request bit it clears in *sisr.
func (q *IRQs) Take(level uint8, sisr *uint32) Vector {
	if vec := q.vec[level]; vec != 0 {
		q.vec[level] = 0
		q.mask &^= 1 << level
		return vec
	}
	*sisr &^= 1 << level
	return SoftwareVector(level)
}

// Vectors returns the table as a checkpoint records it: the vector
// pending at each level, 0 for none.
func (q *IRQs) Vectors() [32]Vector { return q.vec }

// IRQsFrom rebuilds a table from the vectors Vectors returned.
func IRQsFrom(vec [32]Vector) IRQs {
	var q IRQs
	for l, v := range vec {
		q.Post(uint8(l), v)
	}
	return q
}
