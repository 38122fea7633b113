package core

import (
	"strings"
	"testing"

	"repro/internal/vax"
)

// TestConsoleBootAndDebug drives the virtual console subset end to end:
// deposit a program into a fresh VM, start it, halt it from the
// console, examine its memory, and continue.
func TestConsoleBootAndDebug(t *testing.T) {
	k := New(8<<20, Config{})
	vm, err := k.CreateVM(VMConfig{MemBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	run := func(cmd string) string {
		t.Helper()
		out, err := k.ConsoleCommand(vm, cmd)
		if err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
		return out
	}

	// Deposit a tiny program at VM-physical 0x1000 (mapping off, so the
	// identity map runs it): increment 0x2000 forever.
	//   incl @#0x2000 = D6 9F 00 20 00 00 ; brb -8 = 11 F8
	run("DEPOSIT 0x1000 0x20009FD6")
	run("DEPOSIT 0x1004 0xF8110000")
	if out := run("EXAMINE 0x1000"); !strings.Contains(out, "20009FD6") {
		t.Errorf("examine after deposit: %q", out)
	}
	run("START 0x1000")
	k.Run(5000)
	if h, _ := vm.Halted(); h {
		t.Fatal("VM halted unexpectedly")
	}
	if out := run("HALT"); !strings.Contains(out, "halted") {
		t.Errorf("halt reply %q", out)
	}
	v1, _ := vm.readPhys(0x2000)
	if v1 == 0 {
		t.Fatal("deposited program never ran")
	}
	// Halted: no progress.
	k.Run(2000)
	v2, _ := vm.readPhys(0x2000)
	if v2 != v1 {
		t.Error("console HALT did not stop the VM")
	}
	// Continue: progress resumes.
	run("CONTINUE")
	k.Run(5000)
	v3, _ := vm.readPhys(0x2000)
	if v3 <= v2 {
		t.Error("console CONTINUE did not resume the VM")
	}
	checkSchedLists(t, k)
}

func TestConsoleInitialize(t *testing.T) {
	k := New(8<<20, Config{})
	vm, err := k.CreateVM(VMConfig{MemBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	vm.regs[3] = 99
	vm.irqs.Post(vax.IPLClock, vax.VecClock)
	out, err := k.ConsoleCommand(vm, "INITIALIZE")
	if err != nil || out != "initialized" {
		t.Fatalf("%q %v", out, err)
	}
	if vm.regs[3] != 0 || vm.irqs != (vax.IRQs{}) {
		t.Error("INITIALIZE did not reset state")
	}
	if vm.vmpsl.IPL() != 31 {
		t.Errorf("power-up IPL = %d", vm.vmpsl.IPL())
	}
	checkSchedLists(t, k)
}

func TestConsoleErrors(t *testing.T) {
	k := New(8<<20, Config{})
	vm, err := k.CreateVM(VMConfig{MemBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{
		"EXAMINE",              // missing arg
		"EXAMINE zzz",          // bad value
		"EXAMINE 0xFFFFFF00",   // outside VM memory
		"DEPOSIT 0x0",          // missing value
		"DEPOSIT 0xFFFFFF00 1", // outside
		"START",                // missing addr
		"FROB 1",               // unknown
	} {
		if _, err := k.ConsoleCommand(vm, cmd); err == nil {
			t.Errorf("%q should error", cmd)
		}
	}
	if out, err := k.ConsoleCommand(vm, "   "); err != nil || out != "" {
		t.Error("blank line should be a no-op")
	}
	// Abbreviations work (real consoles accept E/D).
	if _, err := k.ConsoleCommand(vm, "D 0x3000 42"); err != nil {
		t.Error(err)
	}
	out, err := k.ConsoleCommand(vm, "E 0x3000")
	if err != nil || !strings.Contains(out, "0000002A") {
		t.Errorf("abbreviated examine: %q %v", out, err)
	}
	checkSchedLists(t, k)
}
