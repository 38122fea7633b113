package vax

import (
	"math/rand"
	"testing"
)

// scanAbove is the 31-level scan IRQs.Above replaced: test each level
// from the top down, the device vector first and, at software levels,
// the SISR bit.
func scanAbove(vec *[32]Vector, sisr uint32, ipl uint8) uint8 {
	for l := uint8(31); l > ipl; l-- {
		if vec[l] != 0 {
			return l
		}
		if l <= IPLSoftwareMax && sisr&(1<<l) != 0 {
			return l
		}
	}
	return 0
}

// scanTake is the pick IRQs.Take replaced: the device vector at level,
// else the software vector, clearing its SISR bit.
func scanTake(vec *[32]Vector, sisr *uint32, level uint8) Vector {
	if v := vec[level]; v != 0 {
		vec[level] = 0
		return v
	}
	*sisr &^= 1 << level
	return SoftwareVector(level)
}

// checkIRQs compares Above at every IPL, and Take at the level Above
// picks, against the scan over the table vec with SISR sisr.
func checkIRQs(t *testing.T, vec [32]Vector, sisr uint32) {
	t.Helper()
	q := IRQsFrom(vec)
	for l, v := range vec {
		if (q.mask>>l&1 == 1) != (v != 0) {
			t.Fatalf("table %v: mask %#x disagrees with level %d", vec, q.mask, l)
		}
	}
	for ipl := uint8(0); ipl < 32; ipl++ {
		level := q.Above(ipl, sisr)
		if want := scanAbove(&vec, sisr, ipl); level != want {
			t.Fatalf("table %v sisr %#x: Above(%d) = %d, the scan %d", vec, sisr, ipl, level, want)
		}
		if level == 0 {
			continue
		}
		got, gotSISR := q, sisr
		wantVec, wantSISR, wantMask := vec, sisr, q.mask
		if vec[level] != 0 {
			wantMask &^= 1 << level
		}
		if v, w := got.Take(level, &gotSISR), scanTake(&wantVec, &wantSISR, level); v != w ||
			gotSISR != wantSISR || got.vec != wantVec || got.mask != wantMask {
			t.Fatalf("table %v sisr %#x: Take(%d) = %#x leaving sisr %#x, the scan %#x leaving %#x",
				vec, sisr, level, v, gotSISR, w, wantSISR)
		}
	}
}

// TestIRQs checks the one interrupt table against the 31-level scan it
// replaced, over every SISR pattern alone, every one- and two-level
// device table, and random tables with random 32-bit SISR values, bit 0
// and the bits above 15 included; and its checkpoint form.
func TestIRQs(t *testing.T) {
	var none [32]Vector
	for sisr := uint32(0); sisr < 1<<16; sisr++ {
		checkIRQs(t, none, sisr)
	}
	for a := 0; a < 32; a++ {
		for b := a; b < 32; b++ {
			var vec [32]Vector
			vec[a] = SoftwareVector(uint8(a)) + 0x100
			vec[b] = SoftwareVector(uint8(b)) + 0x200
			for _, sisr := range []uint32{0, 0xFFFF} {
				checkIRQs(t, vec, sisr)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		var vec [32]Vector
		for l := range vec {
			if rng.Intn(8) == 0 {
				vec[l] = Vector(rng.Uint32() | 1)
			}
		}
		checkIRQs(t, vec, rng.Uint32())
	}

	t.Run("checkpoint form", func(t *testing.T) {
		for i := 0; i < 1000; i++ {
			var q IRQs
			for l := 0; l < 32; l++ {
				if rng.Intn(3) == 0 {
					q.Post(uint8(l), Vector(rng.Uint32()|1))
				}
			}
			if back := IRQsFrom(q.Vectors()); back != q {
				t.Fatalf("round trip of %v changed the table", q.Vectors())
			}
		}
	})

	t.Run("zero vector withdraws", func(t *testing.T) {
		var q IRQs
		q.Post(IPLDisk, VecDisk)
		q.Post(IPLClock, VecClock)
		q.Post(IPLClock, 0)
		if got := q.Above(0, 0); got != IPLDisk {
			t.Errorf("after withdrawing the clock, Above(0) = %d, want %d", got, IPLDisk)
		}
		q.Clear(IPLDisk)
		if q != (IRQs{}) {
			t.Errorf("after withdrawing every level the table is %+v, want empty", q)
		}
		q.Post(32, VecDisk)
		q.Post(255, VecDisk)
		if q != (IRQs{}) {
			t.Errorf("a post above level 31 changed the table: %+v", q)
		}
	})
}
