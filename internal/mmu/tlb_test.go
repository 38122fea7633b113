package mmu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/vax"
)

// The array TLB replaced an unbounded map keyed by page-base VA (an
// idealized fully-associative buffer). These tests measure what the
// direct-mapped geometry costs: oldMapTLB replays each reference
// stream against the old model so the two hit rates can be reported
// side by side, and the conflict cases check that an eviction only
// ever costs a re-walk, never a wrong translation.

// oldMapTLB models the previous map-backed TLB's hit accounting.
type oldMapTLB struct {
	entries map[uint32]bool
	hits    uint64
	misses  uint64
}

func newOldMapTLB() *oldMapTLB { return &oldMapTLB{entries: map[uint32]bool{}} }

func (o *oldMapTLB) access(va uint32) {
	page := va &^ vax.PageMask
	if o.entries[page] {
		o.hits++
	} else {
		o.misses++
		o.entries[page] = true
	}
}

func (o *oldMapTLB) rate() float64 {
	return float64(o.hits) / float64(o.hits+o.misses)
}

// buildP0System extends buildSystem with a 1024-entry P0 page table in
// S pages 8..15, every P0 page mapped to p0Frame.
func buildP0System(t *testing.T, p0Frame uint32) (*MMU, *mem.Memory) {
	t.Helper()
	u, m := buildSystem(t, 16, vax.ProtUW)
	u.P0BR = vax.SystemBase + 8*vax.PageSize
	u.P0LR = 1024
	// S page 8 maps to frame 24 (buildSystem: S page i -> frame 16+i),
	// so the table occupies frames 24..31 physically.
	base := uint32(24 * vax.PageSize)
	for vpn := uint32(0); vpn < 1024; vpn++ {
		pte := vax.NewPTE(true, vax.ProtUW, false, p0Frame)
		if err := m.StoreLong(base+4*vpn, uint32(pte)); err != nil {
			t.Fatal(err)
		}
	}
	return u, m
}

func hitRate(u *MMU) float64 {
	return float64(u.Stats.TLBHits) / float64(u.Stats.TLBHits+u.Stats.TLBMisses)
}

// TestTLBHitRateArrayVsOldMap replays three reference streams through
// the array TLB and the old map model and reports both hit rates. On
// working sets that fit (the common case for the paper's guests) the
// direct-mapped array must match the fully-associative map exactly.
func TestTLBHitRateArrayVsOldMap(t *testing.T) {
	run := func(name string, vas []uint32, wantEqual bool) (arr, old float64) {
		u, _ := buildP0System(t, 40)
		o := newOldMapTLB()
		for _, va := range vas {
			if _, err := u.Translate(va, Read, vax.Kernel); err != nil {
				t.Fatalf("%s: translate %#x: %v", name, va, err)
			}
			o.access(va)
		}
		arr, old = hitRate(u), o.rate()
		t.Logf("%-14s array TLB hit rate %.4f, old map TLB hit rate %.4f", name, arr, old)
		if wantEqual && arr != old {
			t.Errorf("%s: array hit rate %.4f != map hit rate %.4f (working set fits; no conflicts expected)",
				name, arr, old)
		}
		return arr, old
	}

	// Looping working set: 16 S pages touched 100 times over.
	var loop []uint32
	for it := 0; it < 100; it++ {
		for p := uint32(0); p < 16; p++ {
			loop = append(loop, vax.SystemBase+p*vax.PageSize+uint32(it%vax.PageSize))
		}
	}
	arr, _ := run("loop-16", loop, true)
	if arr < 0.98 {
		t.Errorf("loop-16: array hit rate %.4f, want >= 0.98", arr)
	}

	// Mixed-region sweep: S and P0 pages interleaved, two passes — the
	// second pass hits everywhere in both models.
	var sweep []uint32
	for pass := 0; pass < 2; pass++ {
		for p := uint32(0); p < 16; p++ {
			sweep = append(sweep, vax.SystemBase+p*vax.PageSize)
			sweep = append(sweep, p*vax.PageSize) // P0
		}
	}
	run("mixed-sweep", sweep, true)

	// Adversarial conflict pair: P0 pages 10 and 522 index the same set
	// (522 & 511 == 10), so alternating between them misses every time
	// in the array while the map keeps both — the cost of direct mapping.
	var conflict []uint32
	for i := 0; i < 100; i++ {
		conflict = append(conflict, 10*vax.PageSize, 522*vax.PageSize)
	}
	arrC, oldC := run("conflict-pair", conflict, false)
	if arrC >= oldC {
		t.Errorf("conflict-pair: array hit rate %.4f not below map hit rate %.4f — pages 10/522 no longer conflict; update the adversarial pair for the current tlbIndex",
			arrC, oldC)
	}
}

// TestTLBConflictEvictionStaysCorrect: a set conflict costs a re-walk,
// never a wrong physical address.
func TestTLBConflictEvictionStaysCorrect(t *testing.T) {
	u, m := buildP0System(t, 40)
	// Distinguish the conflicting pages by frame.
	base := uint32(24 * vax.PageSize)
	if err := m.StoreLong(base+4*522, uint32(vax.NewPTE(true, vax.ProtUW, false, 41))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pa, err := u.Translate(10*vax.PageSize+3, Read, vax.Kernel)
		if err != nil || pa != 40*vax.PageSize+3 {
			t.Fatalf("page 10: pa=%#x err=%v", pa, err)
		}
		pa, err = u.Translate(522*vax.PageSize+7, Read, vax.Kernel)
		if err != nil || pa != 41*vax.PageSize+7 {
			t.Fatalf("page 522: pa=%#x err=%v", pa, err)
		}
	}
	if u.Stats.TLBHits != 0 {
		t.Errorf("TLBHits = %d; the conflict pair should evict each other every time", u.Stats.TLBHits)
	}
}

// TestTLBNoRegionAliasing: congruent page numbers in different regions
// are distinct translations — the tag keeps the region bits, so S page
// 2 and P0 page 2 can never satisfy each other's lookups.
func TestTLBNoRegionAliasing(t *testing.T) {
	u, _ := buildP0System(t, 40)
	pa, err := u.Translate(vax.SystemBase+2*vax.PageSize, Read, vax.Kernel)
	if err != nil || pa != 18*vax.PageSize {
		t.Fatalf("S page 2: pa=%#x err=%v", pa, err)
	}
	pa, err = u.Translate(2*vax.PageSize, Read, vax.Kernel)
	if err != nil || pa != 40*vax.PageSize {
		t.Fatalf("P0 page 2: pa=%#x err=%v", pa, err)
	}
	if u.Stats.TLBHits != 0 {
		t.Error("P0 lookup hit the S entry: region bits lost from the tag")
	}
	// Both entries coexist (the index fold spreads regions apart).
	if u.TLBSize() != 2 {
		t.Errorf("TLBSize = %d, want 2", u.TLBSize())
	}
}

// TestTBIAGenerationWraparound: TBIA is a counter bump, and on the
// wraparound to zero the array is swept so entries from a retired
// generation cannot come back to life.
func TestTBIAGenerationWraparound(t *testing.T) {
	u, _ := buildSystem(t, 4, vax.ProtUW)
	va := vax.SystemBase + vax.PageSize
	u.gen = ^uint32(0) // next TBIA wraps
	if _, err := u.Translate(va, Read, vax.Kernel); err != nil {
		t.Fatal(err)
	}
	if u.TLBSize() != 1 {
		t.Fatalf("TLBSize = %d before wraparound", u.TLBSize())
	}
	u.TBIA()
	if u.gen != 1 {
		t.Errorf("gen = %d after wraparound, want 1", u.gen)
	}
	if u.TLBSize() != 0 {
		t.Error("entry from generation 2^32-1 survived the wraparound sweep")
	}
	misses := u.Stats.TLBMisses
	if _, err := u.Translate(va, Read, vax.Kernel); err != nil {
		t.Fatal(err)
	}
	if u.Stats.TLBMisses != misses+1 {
		t.Error("lookup after wraparound TBIA did not re-walk")
	}
}

// TestLookupGrantsMatchProtection checks the TLB's cached grants
// against the protection rules over every PTE protection, valid and
// modify bit, mode and access: a grant bit is set exactly when the
// access needs no walk, fault or M-bit update. Through the MMU, an
// entry filled by a read walk must answer Lookup the same way, Lookup
// must count nothing, and TranslateFast must count each hit once.
func TestLookupGrantsMatchProtection(t *testing.T) {
	fast := func(pte vax.PTE, a Access, mode vax.Mode) bool {
		prot := pte.Prot()
		if prot.Reserved() || !pte.Valid() {
			return false
		}
		if a == Write {
			return prot.CanWrite(mode) && pte.Modified()
		}
		return prot.CanRead(mode)
	}
	va := uint32(vax.SystemBase + 0x10)
	for prot := vax.Protection(0); prot < 16; prot++ {
		for _, valid := range []bool{false, true} {
			for _, mod := range []bool{false, true} {
				pte := vax.NewPTE(valid, prot, mod, 20)
				u, m := buildSystem(t, 1, vax.ProtUW)
				if err := m.StoreLong(0x1000, uint32(pte)); err != nil {
					t.Fatal(err)
				}
				_, err := u.Translate(va, Read, vax.Kernel)
				filled := err == nil
				for mode := vax.Mode(0); mode < vax.NumModes; mode++ {
					for _, a := range []Access{Read, Write} {
						want := fast(pte, a, mode)
						if got := grants(pte)>>(4*uint32(a)+uint32(mode))&1 == 1; got != want {
							t.Errorf("%s %s by %s: grant %t, want %t", pte, a, mode, got, want)
						}
						stats := u.Stats
						pa, ok := u.Lookup(va, a, mode)
						if ok != (filled && want) || ok && pa != 20*vax.PageSize+0x10 {
							t.Errorf("%s %s by %s: Lookup = %#x, %t; want %t", pte, a, mode, pa, ok, filled && want)
						}
						if u.Stats != stats {
							t.Errorf("%s: Lookup counted %+v", pte, u.Stats)
						}
						if _, ok := u.TranslateFast(va, a, mode); ok != (filled && want) ||
							ok && (u.Stats.FastTranslations != stats.FastTranslations+1 ||
								u.Stats.Translations != stats.Translations+1 || u.Stats.TLBHits != stats.TLBHits+1) {
							t.Errorf("%s %s by %s: TranslateFast %t, stats %+v", pte, a, mode, ok, u.Stats)
						}
					}
				}
			}
		}
	}
}
