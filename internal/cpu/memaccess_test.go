package cpu

import (
	"testing"

	"repro/internal/vax"
)

// TestStraddlingStoreFaultWritesNothing stores a longword across S
// pages 100 and 101 with page 101 invalid: the store takes the TNV
// fault before it writes any byte, so the restarted instruction finds
// page 100's bytes as they were.
func TestStraddlingStoreFaultWritesNothing(t *testing.T) {
	rm := newRunMachine(t, `
start:	movl #0x11223344, @#0x8000C9FE
	halt
hdl:	halt
`, true, map[vax.Vector]string{vax.VecTransNotValid: "hdl"})
	invalid := vax.NewPTE(false, vax.ProtUW, true, 101)
	if err := rm.m.StoreLong(runSPT+4*101, uint32(invalid)); err != nil {
		t.Fatal(err)
	}
	rm.c.Step()
	if rm.c.PC() != rm.sym("hdl") || rm.c.MMU.Stats.TNVFaults != 1 {
		t.Fatalf("pc = %#x, %d TNV faults; want the TNV handler", rm.c.PC(), rm.c.MMU.Stats.TNVFaults)
	}
	got, err := rm.m.LoadBytes(0xC9FE, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("page 100 ends % x after the faulting store, want 00 00", got)
	}
}
