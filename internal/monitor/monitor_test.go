package monitor

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encoding/binary"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/vax"
)

func testMachine(t *testing.T) (*Monitor, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(`
start:	movl #5, r0
loop:	addl2 #1, r1
	sobgtr r0, loop
	movl #0xABCD, r2
	halt
data:	.long 0x11111111, 0x22222222
`, 0x400)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(64 * 1024)
	if err := m.StoreBytes(prog.Origin, prog.Code); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(m, cpu.StandardVAX)
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.SetStackFor(vax.Kernel, 0x8000)
	c.SetPC(prog.MustSymbol("start"))
	mon := New(c)
	mon.Symbols = prog.Symbols
	return mon, prog
}

func run(t *testing.T, m *Monitor, cmd string) string {
	t.Helper()
	out, quit := m.Execute(cmd)
	if quit {
		t.Fatalf("%q ended the session", cmd)
	}
	return out
}

func TestStepAndRegs(t *testing.T) {
	m, _ := testMachine(t)
	out := run(t, m, "step")
	if !strings.Contains(out, "pc=0x403") {
		t.Errorf("step output %q", out)
	}
	if m.CPU.R[0] != 5 {
		t.Errorf("r0 = %d", m.CPU.R[0])
	}
	out = run(t, m, "regs")
	if !strings.Contains(out, "r0  00000005") {
		t.Errorf("regs output:\n%s", out)
	}
	run(t, m, "step 100") // runs to the halt
	if !m.CPU.Halted {
		t.Error("machine should have halted")
	}
}

func TestContinueAndBreakpoints(t *testing.T) {
	m, prog := testMachine(t)
	target := prog.MustSymbol("loop")
	out := run(t, m, "break loop")
	if !strings.Contains(out, "breakpoint at") {
		t.Errorf("break output %q", out)
	}
	out = run(t, m, "continue")
	if !strings.Contains(out, "breakpoint") || m.CPU.PC() != target {
		t.Errorf("continue stopped at %#x: %q", m.CPU.PC(), out)
	}
	out = run(t, m, "break")
	if !strings.Contains(out, "loop") {
		t.Errorf("break list %q", out)
	}
	out = run(t, m, "del loop")
	if out != "deleted" {
		t.Errorf("del output %q", out)
	}
	out = run(t, m, "continue")
	if !strings.Contains(out, "halted") {
		t.Errorf("final continue %q", out)
	}
	if m.CPU.R[2] != 0xABCD {
		t.Errorf("program did not complete: r2=%#x", m.CPU.R[2])
	}
}

func TestDisassembleAndMem(t *testing.T) {
	m, _ := testMachine(t)
	out := run(t, m, "dis start 3")
	for _, want := range []string{"movl #5, r0", "addl2 #1, r1", "sobgtr"} {
		if !strings.Contains(out, want) {
			t.Errorf("dis missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "<start>") {
		t.Errorf("dis missing symbol:\n%s", out)
	}
	out = run(t, m, "mem data 2")
	if !strings.Contains(out, "11111111") || !strings.Contains(out, "22222222") {
		t.Errorf("mem output:\n%s", out)
	}
}

func TestSymbolsAndStat(t *testing.T) {
	m, _ := testMachine(t)
	out := run(t, m, "sym")
	for _, want := range []string{"start", "loop", "data"} {
		if !strings.Contains(out, want) {
			t.Errorf("sym missing %q", want)
		}
	}
	out = run(t, m, "sym lo")
	if strings.Contains(out, "start") || !strings.Contains(out, "loop") {
		t.Errorf("prefix filter broken: %q", out)
	}
	run(t, m, "step 3")
	out = run(t, m, "stat")
	if !strings.Contains(out, "instructions 3") {
		t.Errorf("stat output %q", out)
	}
}

func TestErrorsAndHelp(t *testing.T) {
	m, _ := testMachine(t)
	if out := run(t, m, "bogus"); !strings.Contains(out, "unknown command") {
		t.Errorf("got %q", out)
	}
	if out := run(t, m, "help"); !strings.Contains(out, "break") {
		t.Errorf("help %q", out)
	}
	if out := run(t, m, "mem"); !strings.Contains(out, "usage") {
		t.Errorf("mem usage %q", out)
	}
	if out := run(t, m, "mem zzz"); !strings.Contains(out, "bad address") {
		t.Errorf("bad addr %q", out)
	}
	if out := run(t, m, "del 0x999"); !strings.Contains(out, "no breakpoint") {
		t.Errorf("del %q", out)
	}
	if out, _ := m.Execute(""); out != "" {
		t.Errorf("empty line produced %q", out)
	}
	if _, quit := m.Execute("quit"); !quit {
		t.Error("quit did not end session")
	}
}

// vmMonitor builds a monitor attached to a VMM with one trivial VM.
func vmMonitor(t *testing.T) (*Monitor, *core.VMM) {
	t.Helper()
	prog, err := asm.Assemble("start:\thalt\n", vax.SystemBase+0x1000)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 64*1024)
	for i := uint32(0); i < 64; i++ {
		pte := vax.NewPTE(true, vax.ProtUW, true, i)
		binary.LittleEndian.PutUint32(img[0x200+4*i:], uint32(pte))
	}
	copy(img[0x1000:], prog.Code)
	k := core.New(8<<20, core.Config{})
	if _, err := k.CreateVM(core.VMConfig{MemBytes: 64 * 1024, Image: img,
		StartPC: prog.MustSymbol("start"), PreMapped: true, SBR: 0x200, SLR: 64}); err != nil {
		t.Fatal(err)
	}
	mon := New(k.CPU)
	mon.VMM = k
	return mon, k
}

func TestFaultCommandNeedsVMM(t *testing.T) {
	m, _ := testMachine(t)
	for _, cmd := range []string{"fault", "watchdog"} {
		if out := run(t, m, cmd); !strings.Contains(out, "no VMM attached") {
			t.Errorf("%q = %q", cmd, out)
		}
	}
}

func TestFaultCommand(t *testing.T) {
	m, k := vmMonitor(t)
	if out := run(t, m, "fault"); !strings.Contains(out, "no fault plan armed") {
		t.Errorf("fault = %q", out)
	}
	if out := run(t, m, "fault seed 5"); !strings.Contains(out, "seed 5, target vm -1") {
		t.Errorf("fault seed = %q", out)
	}
	if k.Faults() == nil {
		t.Fatal("injector not attached")
	}
	if out := run(t, m, "fault"); !strings.Contains(out, "armed:") ||
		!strings.Contains(out, "machine-checks 0") {
		t.Errorf("fault status = %q", out)
	}
	if out := run(t, m, "fault check"); !strings.Contains(out, "self-check pass") {
		t.Errorf("fault check = %q", out)
	}
	if out := run(t, m, "fault off"); !strings.Contains(out, "disarmed") {
		t.Errorf("fault off = %q", out)
	}
	if k.Faults() != nil {
		t.Error("injector still attached after fault off")
	}
	if out := run(t, m, "fault seed nope"); !strings.Contains(out, "bad seed") {
		t.Errorf("fault seed nope = %q", out)
	}
}

func TestTraceCommandNeedsVMM(t *testing.T) {
	m, _ := testMachine(t)
	for _, cmd := range []string{"trace", "hist"} {
		if out := run(t, m, cmd); !strings.Contains(out, "no VMM attached") {
			t.Errorf("%q = %q", cmd, out)
		}
	}
}

func TestTraceAndHistCommands(t *testing.T) {
	m, k := vmMonitor(t)
	if out := run(t, m, "trace"); !strings.Contains(out, "flight recorder disabled") {
		t.Errorf("trace with no recorder = %q", out)
	}
	if out := run(t, m, "hist"); !strings.Contains(out, "recorder disabled") {
		t.Errorf("hist with no recorder = %q", out)
	}
	k.EnableRecorder(1024)
	k.Run(10_000)
	if out := run(t, m, "trace"); !strings.Contains(out, "vm-trap") {
		t.Errorf("trace after run = %q", out)
	}
	if out := run(t, m, "trace nope"); !strings.Contains(out, "usage") {
		t.Errorf("trace nope = %q", out)
	}
	out := run(t, m, "hist")
	if !strings.Contains(out, "trap") || !strings.Contains(out, "p99") {
		t.Errorf("hist after run = %q", out)
	}
}

func TestWatchdogCommand(t *testing.T) {
	m, k := vmMonitor(t)
	if out := run(t, m, "watchdog"); !strings.Contains(out, "watchdog disabled") {
		t.Errorf("watchdog = %q", out)
	}
	if out := run(t, m, "watchdog 8"); !strings.Contains(out, "set to 8 ticks") {
		t.Errorf("watchdog 8 = %q", out)
	}
	if k.Config().Watchdog != 8 {
		t.Errorf("budget = %d, want 8", k.Config().Watchdog)
	}
	if out := run(t, m, "watchdog"); !strings.Contains(out, "budget 8 ticks") ||
		!strings.Contains(out, "since progress") {
		t.Errorf("watchdog status = %q", out)
	}
	if out := run(t, m, "watchdog 0"); !strings.Contains(out, "disabled") {
		t.Errorf("watchdog 0 = %q", out)
	}
}

func TestCheckpointCommandNeedsVMM(t *testing.T) {
	m, _ := testMachine(t)
	for _, cmd := range []string{"checkpoint 0", "restore x", "recover"} {
		if out := run(t, m, cmd); !strings.Contains(out, "no VMM attached") {
			t.Errorf("%q = %q", cmd, out)
		}
	}
}

func TestCheckpointAndRestoreCommands(t *testing.T) {
	m, k := vmMonitor(t)
	if out := run(t, m, "checkpoint"); !strings.Contains(out, "usage") {
		t.Errorf("checkpoint = %q", out)
	}
	if out := run(t, m, "checkpoint zz"); !strings.Contains(out, "bad vm id") {
		t.Errorf("checkpoint zz = %q", out)
	}
	if out := run(t, m, "checkpoint 9"); !strings.Contains(out, "no vm with id 9") {
		t.Errorf("checkpoint 9 = %q", out)
	}
	file := filepath.Join(t.TempDir(), "vm0.ckpt")
	out := run(t, m, "checkpoint 0 "+file)
	if !strings.Contains(out, "checkpoint taken") || !strings.Contains(out, "written to") {
		t.Fatalf("checkpoint 0 = %q", out)
	}
	if fi, err := os.Stat(file); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	if out := run(t, m, "restore"); !strings.Contains(out, "usage") {
		t.Errorf("restore = %q", out)
	}
	if out := run(t, m, "restore /nonexistent.ckpt"); !strings.Contains(out, "restore failed") {
		t.Errorf("restore missing = %q", out)
	}
	out = run(t, m, "restore "+file+" clone")
	if !strings.Contains(out, "restored from") || !strings.Contains(out, "clone") {
		t.Fatalf("restore = %q", out)
	}
	vms := k.VMs()
	if len(vms) != 2 || vms[1].Name() != "clone" {
		t.Fatalf("restore did not create the clone: %d VMs", len(vms))
	}
	k.Run(0)
	for _, vm := range vms {
		if halted, msg := vm.Halted(); !halted || !strings.Contains(msg, "HALT") {
			t.Errorf("%s: halted=%v msg=%q after restore run", vm.Name(), halted, msg)
		}
	}
}

func TestRecoverCommand(t *testing.T) {
	m, k := vmMonitor(t)
	out := run(t, m, "recover")
	if !strings.Contains(out, "supervisor disarmed") ||
		!strings.Contains(out, "periodic checkpoints off") ||
		!strings.Contains(out, "vm0") {
		t.Errorf("recover status = %q", out)
	}
	if out := run(t, m, "recover on 4"); !strings.Contains(out, "armed, budget 4") {
		t.Errorf("recover on 4 = %q", out)
	}
	if !k.Config().Recover || k.Config().RecoverBudget != 4 {
		t.Errorf("supervisor not armed: %+v", k.Config())
	}
	if out := run(t, m, "recover on zz"); !strings.Contains(out, "usage") {
		t.Errorf("recover on zz = %q", out)
	}
	if out := run(t, m, "recover every 100 8"); !strings.Contains(out, "every 100 ticks") ||
		!strings.Contains(out, "8 generations") {
		t.Errorf("recover every = %q", out)
	}
	if out := run(t, m, "recover every 0"); !strings.Contains(out, "periodic checkpoints off") {
		t.Errorf("recover every 0 = %q", out)
	}
	if out := run(t, m, "recover every"); !strings.Contains(out, "usage") {
		t.Errorf("recover every = %q", out)
	}
	if out := run(t, m, "recover off"); !strings.Contains(out, "disarmed") {
		t.Errorf("recover off = %q", out)
	}
	if out := run(t, m, "recover zz"); !strings.Contains(out, "bad vm id") {
		t.Errorf("recover zz = %q", out)
	}
	if out := run(t, m, "recover 0"); !strings.Contains(out, "not halted") {
		t.Errorf("recover live vm = %q", out)
	}
	// A clean guest HALT is a fatal death: the frames are released and
	// operator recovery must refuse rather than resurrect it.
	run(t, m, "checkpoint 0")
	k.Run(0)
	if out := run(t, m, "recover 0"); !strings.Contains(out, "halted permanently") {
		t.Errorf("recover fatal vm = %q", out)
	}
}

// TestRecoverEveryRefusesDeepRing: a ring depth the configuration
// check refuses is refused at the prompt too, and the policy stays.
func TestRecoverEveryRefusesDeepRing(t *testing.T) {
	m, k := vmMonitor(t)
	run(t, m, "recover every 100 8")
	for _, cmd := range []string{"recover every 1 65", "recover every 1 1000000000"} {
		if out := run(t, m, cmd); !strings.Contains(out, "refused") {
			t.Errorf("%s = %q, want refused", cmd, out)
		}
		if cfg := k.Config(); cfg.CheckpointEvery != 100 || cfg.CheckpointGenerations != 8 {
			t.Errorf("after %q: every %d, %d generations; want 100, 8",
				cmd, cfg.CheckpointEvery, cfg.CheckpointGenerations)
		}
	}
}
