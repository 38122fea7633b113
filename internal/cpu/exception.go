package cpu

import (
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/vax"
)

// Exception and interrupt dispatch. Every event funnels through
// raise(): microcode clears PSL<VM>, the exception sink (the VMM, when
// one is attached) gets first claim, and otherwise the hardware vectors
// through the SCB at SCBB.

// raise delivers an exception, consulting the sink first.
func (c *CPU) raise(e *vax.Exception) {
	c.Stats.Exceptions++
	e.FromVM = c.InVMMode()
	if e.FromVM {
		// Microcode clears PSL<VM> on any exception or interrupt, so
		// software never observes it set (Section 4.2).
		c.psl = c.psl.WithVM(false)
	}
	if c.Sink != nil && c.Sink.HandleException(c, e) {
		return
	}
	if err := c.DispatchSCB(e, vax.Kernel); err != nil {
		// Exception during exception dispatch: the processor halts
		// (simplified from the VAX's console restart).
		c.Halt(HaltDoubleError)
	}
}

// DispatchSCB performs the hardware transfer of control through the
// system control block for exception e, entering newMode. The saved
// PC/PSL pair and e.Params are pushed on the new stack, first parameter
// on top.
func (c *CPU) DispatchSCB(e *vax.Exception, newMode vax.Mode) error {
	scbLong, err := c.Mem.LoadLong(c.SCBB + uint32(e.Vector))
	if err != nil {
		return err
	}
	handler := scbLong &^ 3
	useIS := scbLong&1 == 1 || c.psl.IS()
	if newMode != vax.Kernel {
		useIS = false
	}
	if handler == 0 {
		return &vax.Exception{Vector: vax.VecMachineCheck, Kind: vax.Abort}
	}

	oldPSL := c.psl
	oldPC := c.R[RegPC]

	ipl := oldPSL.IPL()
	if e.Kind == vax.Interrupt && len(e.Params) > 0 {
		ipl = uint8(e.Params[0]) // interrupt level rides in Params[0]
	}
	newPSL := vax.PSL(0).WithCur(newMode).WithPrv(oldPSL.Cur()).WithIPL(ipl)
	if useIS {
		newPSL = vax.PSL(uint32(newPSL) | vax.PSLIS)
	}
	c.SetPSL(newPSL)

	if err := c.Push(uint32(oldPSL)); err != nil {
		return err
	}
	if err := c.Push(oldPC); err != nil {
		return err
	}
	params := e.Params
	if e.Kind == vax.Interrupt {
		params = nil // the level is not pushed
	}
	for i := len(params) - 1; i >= 0; i-- {
		if err := c.Push(params[i]); err != nil {
			return err
		}
	}
	c.R[RegPC] = handler
	c.Cycles += CostExceptionDispatch
	return nil
}

// deliverInterrupt dispatches the pending interrupt at the given level.
func (c *CPU) deliverInterrupt(level uint8) {
	var vec vax.Vector
	if c.pendingIRQ[level] != 0 {
		vec = vax.Vector(c.pendingIRQ[level])
		c.pendingIRQ[level] = 0
		c.irqSummary &^= 1 << level
	} else {
		// Software interrupt: delivering clears the SISR bit.
		vec = vax.SoftwareVector(level)
		c.SISR &^= 1 << level
	}
	c.Stats.Interrupts++
	c.raise(c.scratch.Set1(vec, vax.Interrupt, uint32(level)))
}

// handleError converts an execution error into the architectural
// response: faults restore the register file (undoing operand side
// effects) and re-execute after the handler; traps leave PC at the next
// instruction; bus errors become machine checks.
func (c *CPU) handleError(err error, startPC uint32) {
	switch e := err.(type) {
	case *vax.Exception:
		if e.Kind == vax.Fault {
			c.R = c.regSnapshot
			c.R[RegPC] = startPC
		}
		c.raise(e)
	case *mem.BusError:
		c.R = c.regSnapshot
		c.R[RegPC] = startPC
		c.raise(c.scratch.Set1(vax.VecMachineCheck, vax.Abort, e.Addr))
	default:
		c.Halt(HaltBusError)
	}
}

// Step advances the machine by one instruction (or one interrupt
// delivery, or one idle WAIT cycle).
func (c *CPU) Step() { c.step(1) }

// Run steps the machine until it halts or maxSteps steps have been
// taken (0 = no limit). A step is an instruction, an interrupt delivery
// or an idle WAIT cycle. It returns the number of steps taken.
func (c *CPU) Run(maxSteps uint64) uint64 {
	var steps uint64
	for !c.Halted {
		budget := ^uint64(0)
		if maxSteps != 0 {
			budget = maxSteps - steps
		}
		steps += c.step(budget)
		if maxSteps != 0 && steps >= maxSteps {
			break
		}
	}
	return steps
}

// step takes at most budget (at least 1) steps and returns how many it
// took. The prologue — interrupt poll, WAIT, register snapshot and the
// trap-all test — runs once, and a bound decode-cache hit then starts a
// run of bound instructions executed back to back (runBound). A bound
// memory move counts as a hit only once it commits; when it falls back
// it runs as a non-bound step. A one-instruction loop carries no bound
// tag, so it is tested only once both tags miss: then, unless trap-all
// is armed, execLoop takes its iterations up to its exit, the budget or
// the first one at the device deadline in one step, settled like a
// run's (with a budget of 1 it declines, and the iteration runs as a
// step of its own). Each step leaves every simulated count exactly as a
// Step of its own would.
func (c *CPU) step(budget uint64) uint64 {
	if c.Halted {
		return 0
	}
	before := c.Cycles
	if lvl := c.PendingAbove(c.psl.IPL()); lvl > 0 {
		c.deliverInterrupt(lvl)
		c.tick(c.Cycles - before)
		return 1
	}
	if c.waiting {
		// WAIT idles until an interrupt arrives (or the VMM's timeout).
		c.Cycles += CostWaitIdle
		c.tick(c.Cycles - before)
		return 1
	}
	c.regSnapshot = c.R
	pc := c.R[RegPC]
	c.instStartPC = pc
	trapAll := c.TrapAllInVM && c.InVMMode() && c.VMPSL.Cur() == vax.Kernel
	if trapAll && !c.trapAllSkipOnce {
		// Goldberg scheme 1: every VM-kernel instruction traps for
		// emulation before it is even decoded.
		c.Stats.VMTraps++
		c.Cycles += CostVMTrap
		c.raise(c.vmScratch.Set(vax.Fault, 0xFFFF, pc, pc, c.GuestPSL(), nil, nil))
		c.tick(c.Cycles - before)
		return 1
	}
	c.trapAllSkipOnce = false
	pa, ok := c.MMU.TranslateFast(pc, mmu.Read, c.psl.Cur())
	e := &c.dc.entries[pa&(dcSlots-1)]
	var next uint32
	hit := ok && e.btag == pa
	if hit {
		next = c.execBound(&e.bound, pc)
	} else if ok && e.mtag == pa {
		next, hit = c.execMem(&e.bound, pc)
	}
	if !hit {
		if ok && e.bound.loop && e.tag == pa && e.len != 0 && !trapAll {
			if n := c.execLoop(&e.bound, pc, budget); n > 0 {
				c.settleRun(n, n-1, before)
				return n
			}
		}
		c.execStep(pa, ok)
		c.tick(c.Cycles - before)
		return 1
	}
	c.Stats.DecodeHits++
	c.Stats.BoundHits++
	c.Stats.Instructions++
	if budget == 1 || trapAll {
		// Under trap-all the next VM-kernel instruction traps again.
		c.tick(c.Cycles - before)
		return 1
	}
	return c.runBound(next, pc&^vax.PageMask, pa-pc, budget, before)
}

// execStep executes the instruction at instStartPC, whose translation
// (pa, ok) is already made, through the decode cache or the cold path,
// and takes any fault it raises.
func (c *CPU) execStep(pa uint32, ok bool) {
	if err := c.execOneAt(pa, ok); err != nil {
		c.handleError(err, c.instStartPC)
	}
	c.Stats.Instructions++
}

// runBound continues at pc a run whose first step, begun at cycle
// before, executed a bound instruction on the virtual page page, whose
// physical address is its virtual address plus delta. Bound
// instructions cannot fault, touch devices, halt, wait, or change the
// mode, the IPL, pending interrupts or the TLB; a bound memory move
// touches only plain memory through translations the TLB already
// grants, and changes nothing when it cannot. So nothing the prologue
// checks can change between them: the run needs no interrupt poll,
// snapshot or device tick per instruction. It ends at the step budget,
// at the nearest device deadline (the instruction that reaches it still
// runs, and the tick follows, which is exactly when per-step ticking
// would post the device's interrupt), or at the first instruction that
// is not a bound hit or is a bound memory move that falls back. That
// one runs as the run's last step, once the counters and devices have
// caught up, with its own snapshot and the translation the loop already
// made. A store that drops a decoded instruction clears its tags, so
// the loop stops at overwritten code. A one-instruction loop has no
// tag either: the run ends at it, its first iteration replays through
// execReplay, and the next step takes the rest in closed form.
//
// While PC stays on the run's virtual page its translation is pc +
// delta; each such reuse is credited to the MMU as the TranslateFast
// hit a step of its own would have made.
func (c *CPU) runBound(pc, page, delta uint32, budget, before uint64) uint64 {
	end := before + c.deadline()
	if end < before {
		end = ^uint64(0) // no deadline
	}
	entries := c.dc.entries
	var bound, reused uint64
	left := budget - 1 // steps the budget still allows
	for left > 0 && c.Cycles < end {
		left--
		pa, ok := uint32(0), true
		if pc&^vax.PageMask == page {
			pa = pc + delta
			reused++
		} else {
			pa, ok = c.MMU.TranslateFast(pc, mmu.Read, c.psl.Cur())
			page, delta = pc&^vax.PageMask, pa-pc
		}
		e := &entries[pa&(dcSlots-1)]
		if ok && e.btag == pa {
			bound++
			pc = c.execBound(&e.bound, pc)
			continue
		}
		if ok && e.mtag == pa {
			if next, hit := c.execMem(&e.bound, pc); hit {
				bound++
				pc = next
				continue
			}
		}
		c.settleRun(bound, reused, before)
		before = c.Cycles
		c.regSnapshot = c.R
		c.instStartPC = pc
		c.execStep(pa, ok)
		c.tick(c.Cycles - before)
		return budget - left
	}
	c.settleRun(bound, reused, before)
	return budget - left
}

// settleRun brings the counters and devices up to date with a run's
// bound instructions after its first: it credits their decode hits,
// instructions and reused translations, and ticks the devices once
// with every cycle since before.
func (c *CPU) settleRun(bound, reused, before uint64) {
	c.Stats.DecodeHits += bound
	c.Stats.BoundHits += bound
	c.Stats.Instructions += bound
	c.MMU.CountFastHits(reused)
	c.tick(c.Cycles - before)
}

func (c *CPU) tick(cycles uint64) {
	for _, d := range c.devices {
		d.Tick(c, cycles)
	}
}

// deadline returns the cycles that may pass before the nearest device
// state change (see Device.Deadline).
func (c *CPU) deadline() uint64 {
	d := ^uint64(0)
	for _, dev := range c.devices {
		d = min(d, dev.Deadline())
	}
	return d
}
