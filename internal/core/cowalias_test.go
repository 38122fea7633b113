package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/vax"
)

// checkShadowSpans scans every shadow table of every VM that has them
// whole, and fails on a valid entry outside the table's span: the
// invariant that lets cowSweep read the spans alone. Tables of a VM
// halted for good are back in the page pool and are skipped.
func checkShadowSpans(t *testing.T, k *VMM) {
	t.Helper()
	for _, vm := range k.VMs() {
		s := vm.shadow
		if s == nil || s.released {
			continue
		}
		check := func(name string, tab *shadowTable, n uint32) {
			t.Helper()
			for i := uint32(0); i < n; i++ {
				v, err := k.Mem.LoadLong(tab.phys + 4*i)
				if err != nil {
					t.Fatal(err)
				}
				if vax.PTE(v).Valid() && (i < tab.lo || i >= tab.hi) {
					t.Errorf("%s: %s entry %d is valid (%#x) outside its span [%d, %d)",
						vm.Name(), name, i, v, tab.lo, tab.hi)
					return
				}
			}
		}
		check("S shadow", &s.spt, VMSLimitPTEs)
		for i := range s.slots {
			check(fmt.Sprintf("P0 slot %d", i), &s.slots[i].shadowTable, ProcTablePTEs)
		}
		check("P1 shadow", &s.p1, P1TablePTEs)
	}
}

// runCheckingSpans runs the serial engine like k.Run(maxSteps), in
// slices with checkShadowSpans and checkSchedLists after each, so a test
// whose VMs run to their halt checks the spans while the shadow tables
// are still live, and the scheduler's lists as VMs halt and recover.
// A slice that ends on a machine halt is followed by one more Run, which
// recovers what an armed supervisor can, as one long Run would.
func runCheckingSpans(t *testing.T, k *VMM, maxSteps uint64) {
	t.Helper()
	const slice = 10_000
	for done := uint64(0); done < maxSteps; {
		n := k.Run(min(slice, maxSteps-done))
		checkShadowSpans(t, k)
		checkSchedLists(t, k)
		if n == 0 {
			return
		}
		done += n
	}
}

// Alias layout for TestCOWBreakSweepsAliases: VM frame 40 (S page 40,
// VA 0x80005000) holds the datum. Each case maps that frame a second
// time, at another S page, in a cached P0 slot, in P1 or in a page the
// prefetch group fills. The guest page tables for the process regions
// live in S page 1 beside the SPT: 0x300 and 0x340 are two P0 tables,
// 0x380 a P1 table.
const (
	aliasFrame   = 40
	aliasOld     = 0x01D01D
	aliasNew     = 0x0BE11E
	aliasResults = 0x6000 // r2, r3 and a done marker, VM-physical
)

// aliasGuest reads alias B, then alias A (the datum's own S page). The
// source (r10 = 0) stops there; the clone (r10 = 1) stores through A,
// which breaks the shared frame, and reads both aliases again. Both
// then store what they read and idle in a WAIT loop, which keeps their
// shadow tables live for the caller to inspect and, under the serial
// engine, hands the processor to the other VM. pre runs first, mid
// between the two reads, post between the store and the second read of
// B.
func aliasGuest(pre, b, mid, post string) string {
	return fmt.Sprintf(`
start:	%s
	movl @#%s, r3
	%s
	movl @#0x80005000, r2
	tstl r10
	beql done
	movl #%#x, @#0x80005000
	movl @#0x80005000, r2
	%s
	movl @#%s, r3
done:	movl r2, @#0x80006000
	movl r3, @#0x80006004
	movl #1, @#0x80006008
idle:	wait
	brb idle
`, pre, b, mid, aliasNew, post, b)
}

// TestCOWBreakSweepsAliases: a clone's guest maps one VM-physical page
// at two virtual addresses and references both before a store through
// one of them. The break must null every shadow PTE that still maps the
// old frame, wherever it lies, so each alias reads the clone's new
// value while the source keeps reading the old one. Destroying both VMs
// returns every page.
func TestCOWBreakSweepsAliases(t *testing.T) {
	const (
		p0A = 0x300 // process A's P0 table, VM-physical
		p0B = 0x340 // process B's P0 table
		p1  = 0x380 // P1 table
	)
	mapP0 := "mtpr #0x80000300, #8\n\tmtpr #4, #9"
	for _, tc := range []struct {
		name  string
		cfg   Config
		ptes  map[uint32]uint32 // VM-physical PTE address -> VM frame
		guest string
		check func(t *testing.T, c *VM)
	}{
		{
			name:  "two S pages",
			ptes:  map[uint32]uint32{gSPT + 4*50: aliasFrame},
			guest: aliasGuest("", "0x80006400", "", ""),
		},
		{
			// Process A's P0 page 0 maps the frame; the store runs while
			// process B's table is active, and process A's slot is hit
			// again for the second read.
			name:  "inactive P0 slot",
			cfg:   Config{ShadowCacheSlots: 2},
			ptes:  map[uint32]uint32{p0A: aliasFrame, p0A + 4: 41, p0B: 42, p0B + 4: 43},
			guest: aliasGuest(mapP0, "0", "mtpr #0x80000340, #8\n\tmtpr #2, #9", mapP0),
			check: func(t *testing.T, c *VM) {
				if c.Stats.CacheHits == 0 {
					t.Error("the second read of process A missed the shadow cache")
				}
			},
		},
		{
			name:  "P1",
			ptes:  map[uint32]uint32{p1: aliasFrame, p1 + 4: 41},
			guest: aliasGuest("mtpr #0x80000380, #10\n\tmtpr #2, #11", "0x40000000", "", ""),
		},
		{
			// Reading P0 page 0 prefetches pages 1-3, so page 2's shadow
			// PTE comes from the prefetch group alone.
			name:  "prefetched",
			cfg:   Config{PrefetchGroup: 4},
			ptes:  map[uint32]uint32{p0A: 41, p0A + 4: 42, p0A + 8: aliasFrame, p0A + 12: 43},
			guest: aliasGuest(mapP0+"\n\tmovl @#0, r4", "0x400", "", ""),
			check: func(t *testing.T, c *VM) {
				if c.Stats.PrefetchFills == 0 {
					t.Error("no prefetch fills")
				}
			},
		},
		{
			name:  "read-only shadow upgrade",
			cfg:   Config{ReadOnlyShadow: true},
			ptes:  map[uint32]uint32{gSPT + 4*50: aliasFrame},
			guest: aliasGuest("", "0x80006400", "", ""),
			check: func(t *testing.T, c *VM) {
				if c.Stats.ROWriteFaults == 0 {
					t.Error("the store took no read-only-shadow upgrade")
				}
			},
		},
	} {
		for _, eng := range []struct {
			name string
			run  func(k *VMM)
		}{
			{"Run", func(k *VMM) { k.Run(20_000) }},
			{"RunParallel2", func(k *VMM) { k.RunParallel(2, 20_000) }},
		} {
			t.Run(tc.name+"/"+eng.name, func(t *testing.T) {
				img, prog := guestImage(t, tc.guest, nil)
				for pa, frame := range tc.ptes {
					binary.LittleEndian.PutUint32(img[pa:], uint32(vax.NewPTE(true, vax.ProtUW, true, frame)))
				}
				binary.LittleEndian.PutUint32(img[aliasFrame*vax.PageSize:], aliasOld)
				k := New(8<<20, tc.cfg)
				base := k.PagesInUse()
				src, err := k.CreateVM(VMConfig{
					MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
					PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
				})
				if err != nil {
					t.Fatal(err)
				}
				src.SPs[vax.Kernel] = gKSP
				src.ISP = gISP
				c, err := k.Clone(src, "c")
				if err != nil {
					t.Fatal(err)
				}
				c.regs[10] = 1

				eng.run(k)
				for _, vm := range []*VM{src, c} {
					if h, msg := vm.Halted(); h {
						t.Fatalf("%s halted: %s", vm.Name(), msg)
					}
					if done := guestLong(t, vm, aliasResults+8); done != 1 {
						t.Fatalf("%s did not finish its reads", vm.Name())
					}
				}
				for _, r := range []struct {
					vm   *VM
					want uint32
				}{{src, aliasOld}, {c, aliasNew}} {
					for i, alias := range []string{"A", "B"} {
						if got := guestLong(t, r.vm, aliasResults+4*uint32(i)); got != r.want {
							t.Errorf("%s read alias %s as %#x, want %#x", r.vm.Name(), alias, got, r.want)
						}
					}
					if got := guestLong(t, r.vm, aliasFrame*vax.PageSize); got != r.want {
						t.Errorf("%s holds %#x in frame %d, want %#x", r.vm.Name(), got, aliasFrame, r.want)
					}
				}
				if c.Stats.COWBreaks == 0 {
					t.Error("the clone's store broke no page")
				}
				if tc.check != nil {
					tc.check(t, c)
				}
				checkShadowSpans(t, k)

				for _, vm := range []*VM{src, c} {
					k.HaltVM(vm, "test done")
					if err := k.DestroyVM(vm); err != nil {
						t.Fatal(err)
					}
				}
				if got := k.PagesInUse(); got != base {
					t.Errorf("pages in use %d after destroying both VMs, want baseline %d", got, base)
				}
			})
		}
	}
}
