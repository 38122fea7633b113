package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
	"repro/internal/vax"
)

// The virtual VAX console command interface. Real VAX systems expose a
// console processor with EXAMINE/DEPOSIT/START/HALT commands; Section 5
// of the paper: "We chose a subset adequate for booting and debugging a
// VM." This is that subset, operating on one VM under the VMM.
//
// Commands (addresses are VM-physical, hex or decimal):
//
//	EXAMINE addr          print a longword of VM memory
//	DEPOSIT addr value    write a longword of VM memory
//	START addr            set the VM's PC (and clear a HALT) and mark runnable
//	HALT                  stop the VM at its current PC
//	CONTINUE              resume a console-halted VM
//	INITIALIZE            reset the virtual processor to power-up state

// ConsoleCommand executes one console command against vm and returns
// the console's reply.
func (k *VMM) ConsoleCommand(vm *VM, line string) (string, error) {
	fields := strings.Fields(strings.ToUpper(line))
	if len(fields) == 0 {
		return "", nil
	}
	parse := func(s string) (uint32, error) {
		v, err := strconv.ParseUint(strings.ToLower(s), 0, 32)
		if err != nil {
			return 0, fmt.Errorf("console: bad value %q", s)
		}
		return uint32(v), nil
	}
	cmd := fields[0]
	switch {
	case strings.HasPrefix("EXAMINE", cmd):
		if len(fields) != 2 {
			return "", fmt.Errorf("console: EXAMINE addr")
		}
		addr, err := parse(fields[1])
		if err != nil {
			return "", err
		}
		v, ok := vm.readPhys(addr)
		if !ok {
			return "", fmt.Errorf("console: %#x is outside VM memory", addr)
		}
		return fmt.Sprintf("P %08X %08X", addr, v), nil

	case strings.HasPrefix("DEPOSIT", cmd):
		if len(fields) != 3 {
			return "", fmt.Errorf("console: DEPOSIT addr value")
		}
		addr, err := parse(fields[1])
		if err != nil {
			return "", err
		}
		val, err := parse(fields[2])
		if err != nil {
			return "", err
		}
		if !vm.writePhys(addr, val) {
			return "", fmt.Errorf("console: %#x is outside VM memory", addr)
		}
		return fmt.Sprintf("P %08X %08X", addr, val), nil

	case strings.HasPrefix("START", cmd):
		if len(fields) != 2 {
			return "", fmt.Errorf("console: START addr")
		}
		addr, err := parse(fields[1])
		if err != nil {
			return "", err
		}
		k.consoleUnhalt(vm)
		vm.pc = addr
		return fmt.Sprintf("starting at %08X", addr), nil

	case strings.HasPrefix("CONTINUE", cmd):
		k.consoleUnhalt(vm)
		return fmt.Sprintf("continuing at %08X", vm.pc), nil

	case cmd == "HALT":
		if k.Current() == vm {
			k.suspend(vm)
		}
		k.halt(vm)
		vm.haltMsg = "halted from the console"
		k.event(vm, trace.EvVMHalted, 0, vm.haltMsg)
		return fmt.Sprintf("halted at %08X", vm.pc), nil

	case strings.HasPrefix("INITIALIZE", cmd):
		if k.Current() == vm {
			k.suspend(vm)
		}
		vm.regs = [14]uint32{}
		vm.pslLow = 0
		vm.vmpsl = vm.vmpsl.WithCur(0).WithPrv(0).WithIPL(31)
		vm.mapen = false
		vm.waiting = false
		vm.irqs = vax.IRQs{}
		return "initialized", nil
	}
	return "", fmt.Errorf("console: unknown command %q", cmd)
}

// consoleUnhalt makes a console-stopped VM schedulable again, clearing
// a machine-level halt if every VM had stopped.
func (k *VMM) consoleUnhalt(vm *VM) {
	vm.haltMsg = ""
	vm.waiting = false
	k.unhalt(vm)
	k.CPU.ClearHalt()
}
