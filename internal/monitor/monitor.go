// Package monitor is an interactive machine monitor (debugger) for the
// simulated VAX: single-stepping, breakpoints, register and memory
// inspection, live disassembly, and VM-aware state display. Commands
// live in one registry (registry.go) shared by every surface: the
// command processor is I/O-agnostic so cmd/vaxmon can wrap it around
// stdin and an HTTP mux alike, and tests can drive it directly.
package monitor

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Monitor drives one machine interactively.
type Monitor struct {
	CPU *cpu.CPU
	// Symbols, when set, lets the monitor print symbolic locations.
	Symbols map[string]uint32
	// VMM, when set, enables the VM-level commands (fault, watchdog).
	VMM *core.VMM
	// Fleet, when set, enables the lifecycle commands (create, clone,
	// halt, snapshot, destroy, console, quota) on both surfaces.
	Fleet *fleet.Manager

	breaks map[uint32]bool
}

// New creates a monitor for the given processor.
func New(c *cpu.CPU) *Monitor {
	return &Monitor{CPU: c, breaks: make(map[uint32]bool)}
}

// Sources collects every counter source the machine exposes, for the
// metrics exporters and the stat command's JSON rendering.
func (m *Monitor) Sources() []trace.Source {
	srcs := []trace.Source{m.CPU, m.CPU.MMU}
	if m.VMM != nil {
		srcs = append(srcs, m.VMM)
		for _, vm := range m.VMM.VMs() {
			srcs = append(srcs, vm)
		}
		// The merged totals of the last parallel run carry the worker
		// counters (and the worker_occupancy_permille balance ratio) that
		// no per-VM or monitor source exposes.
		if pr := m.VMM.LastParallelRun(); pr.VMs > 0 {
			srcs = append(srcs, pr)
		}
	}
	return srcs
}

// resolve parses an address: symbol, hex or decimal.
func (m *Monitor) resolve(s string) (uint32, error) {
	if v, ok := m.Symbols[s]; ok {
		return v, nil
	}
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad address %q", s)
	}
	return uint32(v), nil
}

// symbolFor returns "name+off" for the closest symbol at or below addr.
func (m *Monitor) symbolFor(addr uint32) string {
	best, name := uint32(0), ""
	for n, a := range m.Symbols {
		if a <= addr && a >= best && name == "" || (a <= addr && a > best) {
			best, name = a, n
		}
	}
	if name == "" {
		return ""
	}
	if best == addr {
		return " <" + name + ">"
	}
	return fmt.Sprintf(" <%s+%#x>", name, addr-best)
}

func (m *Monitor) step(args []string) string {
	n := uint64(1)
	if len(args) > 0 {
		if v, err := strconv.ParseUint(args[0], 0, 64); err == nil {
			n = v
		}
	}
	for i := uint64(0); i < n && !m.CPU.Halted; i++ {
		m.CPU.Step()
	}
	return m.where()
}

func (m *Monitor) cont(args []string) string {
	max := uint64(1_000_000)
	if len(args) > 0 {
		if v, err := strconv.ParseUint(args[0], 0, 64); err == nil {
			max = v
		}
	}
	var steps uint64
	for !m.CPU.Halted && steps < max {
		m.CPU.Step()
		steps++
		if m.breaks[m.CPU.PC()] {
			return fmt.Sprintf("breakpoint after %d steps\n%s", steps, m.where())
		}
	}
	if m.CPU.Halted {
		return fmt.Sprintf("halted after %d steps\n%s", steps, m.where())
	}
	return fmt.Sprintf("stopped after %d steps\n%s", steps, m.where())
}

// where describes the current location with one disassembled line.
func (m *Monitor) where() string {
	pc := m.CPU.PC()
	line := "???"
	if code := m.readCode(pc, 16); code != nil {
		if text, _, err := asm.Disassemble(code, pc); err == nil {
			line = text
		}
	}
	return fmt.Sprintf("pc=%#x%s: %s", pc, m.symbolFor(pc), line)
}

// readCode fetches up to n bytes of instruction stream at va via the
// machine's own translation (nil if unmapped).
func (m *Monitor) readCode(va uint32, n int) []byte {
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		b, err := m.CPU.LoadVirt(va+uint32(i), 1, vax.Kernel)
		if err != nil {
			break
		}
		out = append(out, byte(b))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (m *Monitor) regs() string {
	c := m.CPU
	var b strings.Builder
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("r%d", i)
		switch i {
		case cpu.RegAP:
			name = "ap"
		case cpu.RegFP:
			name = "fp"
		case cpu.RegSP:
			name = "sp"
		case cpu.RegPC:
			name = "pc"
		}
		fmt.Fprintf(&b, "%-3s %08x  ", name, c.R[i])
		if i%4 == 3 {
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "psl %08x  %s\n", uint32(c.PSL()), c.PSL())
	if c.PSL().VM() || c.VMPSL != 0 {
		fmt.Fprintf(&b, "vmpsl %08x  %s\n", uint32(c.VMPSL), c.VMPSL)
	}
	fmt.Fprintf(&b, "cycles %d  instructions %d  halted %t\n",
		c.Cycles, c.Stats.Instructions, c.Halted)
	return b.String()
}

func (m *Monitor) dis(args []string) string {
	addr := m.CPU.PC()
	count := 8
	if len(args) > 0 {
		v, err := m.resolve(args[0])
		if err != nil {
			return err.Error()
		}
		addr = v
	}
	if len(args) > 1 {
		if v, err := strconv.Atoi(args[1]); err == nil {
			count = v
		}
	}
	var b strings.Builder
	for i := 0; i < count; i++ {
		code := m.readCode(addr, 16)
		if code == nil {
			fmt.Fprintf(&b, "%08x: (unmapped)\n", addr)
			break
		}
		text, n, err := asm.Disassemble(code, addr)
		if err != nil {
			fmt.Fprintf(&b, "%08x: ??? (%v)\n", addr, err)
			break
		}
		mark := "  "
		if m.breaks[addr] {
			mark = "b "
		}
		fmt.Fprintf(&b, "%s%08x%s: %s\n", mark, addr, m.symbolFor(addr), text)
		addr += uint32(n)
	}
	return b.String()
}

func (m *Monitor) mem(args []string) string {
	if len(args) == 0 {
		return "usage: mem addr [n]"
	}
	addr, err := m.resolve(args[0])
	if err != nil {
		return err.Error()
	}
	count := 8
	if len(args) > 1 {
		if v, e := strconv.Atoi(args[1]); e == nil {
			count = v
		}
	}
	var b strings.Builder
	for i := 0; i < count; i++ {
		v, err := m.CPU.LoadVirt(addr+uint32(4*i), 4, vax.Kernel)
		if err != nil {
			fmt.Fprintf(&b, "%08x: (fault: %v)\n", addr+uint32(4*i), err)
			break
		}
		fmt.Fprintf(&b, "%08x: %08x\n", addr+uint32(4*i), v)
	}
	return b.String()
}

func (m *Monitor) breakCmd(args []string) string {
	if len(args) == 0 {
		if len(m.breaks) == 0 {
			return "no breakpoints"
		}
		addrs := make([]uint32, 0, len(m.breaks))
		for a := range m.breaks {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		var b strings.Builder
		for _, a := range addrs {
			fmt.Fprintf(&b, "%#x%s\n", a, m.symbolFor(a))
		}
		return b.String()
	}
	addr, err := m.resolve(args[0])
	if err != nil {
		return err.Error()
	}
	m.breaks[addr] = true
	return fmt.Sprintf("breakpoint at %#x%s", addr, m.symbolFor(addr))
}

func (m *Monitor) deleteBreak(args []string) string {
	if len(args) == 0 {
		return "usage: del addr"
	}
	addr, err := m.resolve(args[0])
	if err != nil {
		return err.Error()
	}
	if !m.breaks[addr] {
		return "no breakpoint there"
	}
	delete(m.breaks, addr)
	return "deleted"
}

func (m *Monitor) symbols(args []string) string {
	prefix := ""
	if len(args) > 0 {
		prefix = args[0]
	}
	type sym struct {
		name string
		addr uint32
	}
	var syms []sym
	for n, a := range m.Symbols {
		if strings.HasPrefix(n, prefix) {
			syms = append(syms, sym{n, a})
		}
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
	var b strings.Builder
	for _, s := range syms {
		fmt.Fprintf(&b, "%08x %s\n", s.addr, s.name)
	}
	if b.Len() == 0 {
		return "no symbols"
	}
	return b.String()
}

// faultCmd inspects and controls fault injection on the attached VMM.
func (m *Monitor) faultCmd(args []string) string {
	if m.VMM == nil {
		return "no VMM attached (fault commands need -vm mode)"
	}
	if len(args) == 0 {
		var b strings.Builder
		if inj := m.VMM.Faults(); inj != nil {
			fmt.Fprintf(&b, "armed: %s\n", inj.Summary())
		} else {
			b.WriteString("no fault plan armed; try: fault seed n [vm]\n")
		}
		for _, vm := range m.VMM.VMs() {
			s := vm.Stats
			fmt.Fprintf(&b, "vm%d %s: machine-checks %d  disk-retries %d  watchdog-trips %d  selfcheck-repairs %d\n",
				vm.ID, vm.Name(), s.MachineChecks, s.DiskRetries, s.WatchdogTrips, s.SelfCheckRepairs)
		}
		return strings.TrimRight(b.String(), "\n")
	}
	switch args[0] {
	case "off":
		m.VMM.AttachFaults(nil)
		return "fault injection disarmed"
	case "check":
		return fmt.Sprintf("self-check pass: %d shadow PTEs repaired", m.VMM.SelfCheck())
	case "seed":
		if len(args) < 2 {
			return "usage: fault seed n [vm]"
		}
		seed, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return "bad seed " + args[1]
		}
		target := -1
		if len(args) > 2 {
			t, err := strconv.Atoi(args[2])
			if err != nil {
				return "bad vm " + args[2]
			}
			target = t
		}
		m.VMM.AttachFaults(fault.New(seed, fault.DefaultConfig(target)))
		return fmt.Sprintf("armed default fault plan, seed %d, target vm %d", seed, target)
	}
	return "usage: fault [seed n [vm] | off | check]"
}

// watchdogCmd inspects and sets the per-VM progress budget.
func (m *Monitor) watchdogCmd(args []string) string {
	if m.VMM == nil {
		return "no VMM attached (watchdog needs -vm mode)"
	}
	if len(args) > 0 {
		n, err := strconv.ParseUint(args[0], 0, 64)
		if err != nil {
			return "usage: watchdog [n]"
		}
		m.VMM.SetWatchdog(n)
		if n == 0 {
			return "watchdog disabled"
		}
		return fmt.Sprintf("watchdog budget set to %d ticks", n)
	}
	var b strings.Builder
	budget := m.VMM.Config().Watchdog
	if budget == 0 {
		b.WriteString("watchdog disabled\n")
	} else {
		fmt.Fprintf(&b, "watchdog budget %d ticks\n", budget)
	}
	for _, vm := range m.VMM.VMs() {
		if halted, msg := vm.Halted(); halted {
			fmt.Fprintf(&b, "vm%d %s: halted (%s), %d trips\n", vm.ID, vm.Name(), msg, vm.Stats.WatchdogTrips)
			continue
		}
		fmt.Fprintf(&b, "vm%d %s: %d ticks since progress, %d trips\n",
			vm.ID, vm.Name(), vm.SinceProgress(), vm.Stats.WatchdogTrips)
	}
	return strings.TrimRight(b.String(), "\n")
}

// traceCmd prints the tail of the flight-recorder event stream.
func (m *Monitor) traceCmd(args []string) string {
	if m.VMM == nil {
		return "no VMM attached (trace needs -vm mode)"
	}
	n := 20
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 0 {
			return "usage: trace [n]"
		}
		n = v
	}
	rec := m.VMM.Recorder()
	if rec == nil {
		return "flight recorder disabled (boot with -trace)"
	}
	return strings.TrimRight(trace.FormatEvents(rec, n), "\n")
}

// histCmd prints the latency histograms' percentile table.
func (m *Monitor) histCmd() string {
	if m.VMM == nil {
		return "no VMM attached (hist needs -vm mode)"
	}
	return strings.TrimRight(trace.HistTable(m.VMM.Recorder()), "\n")
}

// vmByID finds the attached VMM's VM with the given numeric ID.
func (m *Monitor) vmByID(arg string) (*core.VM, string) {
	id, err := strconv.Atoi(arg)
	if err != nil {
		return nil, "bad vm id " + arg
	}
	for _, vm := range m.VMM.VMs() {
		if vm.ID == id {
			return vm, ""
		}
	}
	return nil, fmt.Sprintf("no vm with id %d", id)
}

// checkpointCmd takes an immediate checkpoint generation of a VM and
// optionally externalizes the stream to a file.
func (m *Monitor) checkpointCmd(args []string) string {
	if m.VMM == nil {
		return "no VMM attached (checkpoint needs -vm mode)"
	}
	if len(args) == 0 {
		return "usage: checkpoint vm [file]"
	}
	vm, errs := m.vmByID(args[0])
	if errs != "" {
		return errs
	}
	if err := m.VMM.CheckpointNow(vm); err != nil {
		return "checkpoint failed: " + err.Error()
	}
	out := fmt.Sprintf("vm%d %s: checkpoint taken (%d generations held)",
		vm.ID, vm.Name(), vm.CheckpointGenerations())
	if len(args) > 1 {
		img, err := m.VMM.Snapshot(vm)
		if err != nil {
			return "checkpoint failed: " + err.Error()
		}
		if err := os.WriteFile(args[1], img, 0o644); err != nil {
			return "checkpoint write failed: " + err.Error()
		}
		out += fmt.Sprintf(", %d bytes written to %s", len(img), args[1])
	}
	return out
}

// restoreCmd creates a new VM from an externalized checkpoint stream.
func (m *Monitor) restoreCmd(args []string) string {
	if m.VMM == nil {
		return "no VMM attached (restore needs -vm mode)"
	}
	if len(args) == 0 {
		return "usage: restore file [name]"
	}
	img, err := os.ReadFile(args[0])
	if err != nil {
		return "restore failed: " + err.Error()
	}
	name := ""
	if len(args) > 1 {
		name = args[1]
	}
	vm, err := m.VMM.Restore(name, img)
	if err != nil {
		return "restore failed: " + err.Error()
	}
	return fmt.Sprintf("vm%d %s: restored from %s (%d bytes)",
		vm.ID, vm.Name(), args[0], len(img))
}

// recoverCmd shows and controls the recovery supervisor.
func (m *Monitor) recoverCmd(args []string) string {
	if m.VMM == nil {
		return "no VMM attached (recover needs -vm mode)"
	}
	if len(args) == 0 {
		cfg := m.VMM.Config()
		var b strings.Builder
		if cfg.Recover {
			fmt.Fprintf(&b, "supervisor armed, budget %d recoveries per VM\n", cfg.RecoverBudget)
		} else {
			b.WriteString("supervisor disarmed\n")
		}
		if cfg.CheckpointEvery > 0 {
			fmt.Fprintf(&b, "checkpoint every %d ticks, ring of %d generations\n",
				cfg.CheckpointEvery, cfg.CheckpointGenerations)
		} else {
			b.WriteString("periodic checkpoints off\n")
		}
		for _, vm := range m.VMM.VMs() {
			s := vm.Stats
			fmt.Fprintf(&b, "vm%d %s: %d generations  checkpoints %d  recoveries %d  fallbacks %d  escalations %d\n",
				vm.ID, vm.Name(), vm.CheckpointGenerations(),
				s.Checkpoints, s.Recoveries, s.RecoveryFallbacks, s.RecoveryEscalations)
		}
		return strings.TrimRight(b.String(), "\n")
	}
	switch args[0] {
	case "on":
		budget := 0
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 {
				return "usage: recover on [budget]"
			}
			budget = v
		}
		m.VMM.SetRecovery(true, budget)
		return fmt.Sprintf("supervisor armed, budget %d recoveries per VM", m.VMM.Config().RecoverBudget)
	case "off":
		m.VMM.SetRecovery(false, 0)
		return "supervisor disarmed"
	case "every":
		if len(args) < 2 {
			return "usage: recover every n [gens]"
		}
		every, err := strconv.ParseUint(args[1], 0, 64)
		if err != nil {
			return "usage: recover every n [gens]"
		}
		gens := 0
		if len(args) > 2 {
			v, err := strconv.Atoi(args[2])
			if err != nil || v < 0 {
				return "usage: recover every n [gens]"
			}
			gens = v
		}
		m.VMM.SetCheckpointPolicy(every, gens)
		cfg := m.VMM.Config()
		if cfg.CheckpointEvery == 0 {
			return "periodic checkpoints off"
		}
		return fmt.Sprintf("checkpoint every %d ticks, ring of %d generations",
			cfg.CheckpointEvery, cfg.CheckpointGenerations)
	}
	vm, errs := m.vmByID(args[0])
	if errs != "" {
		return errs
	}
	if err := m.VMM.RecoverNow(vm); err != nil {
		return "recover failed: " + err.Error()
	}
	return fmt.Sprintf("vm%d %s: recovered (%d recoveries, %d fallbacks)",
		vm.ID, vm.Name(), vm.Stats.Recoveries, vm.Stats.RecoveryFallbacks)
}

func (m *Monitor) stat() string {
	c := m.CPU
	s := c.Stats
	u := c.MMU.Stats
	out := fmt.Sprintf(
		"instructions %d  cycles %d\nexceptions %d  interrupts %d  vm-traps %d  priv-traps %d\nchm %d  rei %d  movpsl %d  probe %d\ntlb %d/%d hit/miss  tnv %d  prot %d  modify %d  m-sets %d\ndecode %d/%d hit/miss  invalidations %d  fast-xlate %d\n",
		s.Instructions, c.Cycles, s.Exceptions, s.Interrupts, s.VMTraps, s.PrivTraps,
		s.CHMs, s.REIs, s.MOVPSLs, s.Probes,
		u.TLBHits, u.TLBMisses, u.TNVFaults, u.ProtFaults, u.ModifyFaults, u.MSets,
		s.DecodeHits, s.DecodeMisses, s.DecodeInvalidations, u.FastTranslations)
	if m.VMM == nil {
		return out
	}
	ks := m.VMM.Stats
	out += fmt.Sprintf("shadow-pool %d/%d hit/miss\n", ks.ShadowPoolHits, ks.ShadowPoolMisses)
	if nominal := m.VMM.NominalPages(); nominal > 0 {
		out += fmt.Sprintf("pages: carved %d  nominal %d  backing %d\n",
			m.VMM.CarvedPages(), nominal, m.VMM.Mem.Pages())
	}
	for _, vm := range m.VMM.VMs() {
		vs := vm.Stats
		if vs.SharedPages == 0 && vs.COWBreaks == 0 {
			continue // never took part in cloning: fully resident
		}
		nominal := uint64(vm.MemSize / vax.PageSize)
		resident := vm.ResidentPages()
		out += fmt.Sprintf("vm%d %s: resident %d/%d pages (%d%%)  shared %d  private %d  cow-breaks %d\n",
			vm.ID, vm.Name(), resident, nominal, resident*100/nominal,
			vs.SharedPages, vs.PrivatePages, vs.COWBreaks)
	}
	for _, vm := range m.VMM.VMs() {
		vs := vm.Stats
		if vs.FillBatches == 0 && vs.BatchFills == 0 && vs.SlowPathAllocs == 0 {
			continue
		}
		width := float64(0)
		if vs.FillBatches > 0 {
			// +1 counts the demand fill that anchored each batch.
			width = float64(vs.BatchFills)/float64(vs.FillBatches) + 1
		}
		out += fmt.Sprintf("vm%d %s: fill-batches %d  batched-ptes %d  avg-width %.1f  slow-allocs %d\n",
			vm.ID, vm.Name(), vs.FillBatches, vs.BatchFills, width, vs.SlowPathAllocs)
	}
	if pr := m.VMM.LastParallelRun(); pr.VMs > 0 {
		out += fmt.Sprintf(
			"parallel: %d workers  %d vms  steps %d  instrs %d  dispatches %d\n",
			pr.Workers, pr.VMs, pr.Steps, pr.Instrs, pr.Dispatches)
		out += fmt.Sprintf("parallel: worker-steps %d min / %d max  occupancy %d%%  decode %d/%d hit/miss\n",
			pr.MinWorkerSteps, pr.MaxWorkerSteps, pr.OccupancyPermille()/10,
			pr.DecodeHits, pr.DecodeMisses)
	}
	return out
}
