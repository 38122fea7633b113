package dev

import (
	"repro/internal/cpu"
	"repro/internal/vax"
)

// Clock models the VAX interval timer (ICCS/NICR/ICR). When running,
// ICR counts up by one per processor cycle; on overflow (reaching zero
// from the reload value) the interrupt bit sets and, if enabled, an
// interrupt posts at IPL 22 through SCB vector 0xC0. Software reloads
// via NICR and acknowledges by writing ICCS with the interrupt bit.
type Clock struct {
	iccs  uint32
	nicr  uint32 // reload value (negative count, as on the VAX)
	icr   uint32
	Ticks uint64 // completed intervals since reset
}

// NewClock creates a stopped clock.
func NewClock() *Clock { return &Clock{} }

// Interval configures and starts the clock with the given period in
// cycles, interrupts enabled — convenience for tests and the VMM.
func (k *Clock) Interval(cycles uint32) {
	k.nicr = -cycles
	k.icr = k.nicr
	k.iccs = vax.ICCSRun | vax.ICCSIE
}

// Running reports whether the clock is counting.
func (k *Clock) Running() bool { return k.iccs&vax.ICCSRun != 0 }

// Deadline implements cpu.Device: the cycles until ICR overflows (an
// ICR of 0 overflows on the next cycle), unbounded while stopped.
func (k *Clock) Deadline() uint64 {
	if k.iccs&vax.ICCSRun == 0 {
		return ^uint64(0)
	}
	if k.icr == 0 {
		return 1
	}
	return uint64(-k.icr)
}

// Tick implements cpu.Device.
func (k *Clock) Tick(c *cpu.CPU, cycles uint64) {
	if k.iccs&vax.ICCSRun == 0 {
		return
	}
	for cycles > 0 {
		remaining := uint64(-k.icr)
		if remaining == 0 {
			remaining = 1
		}
		if cycles < remaining {
			k.icr += uint32(cycles)
			return
		}
		cycles -= remaining
		k.icr = k.nicr
		k.Ticks++
		k.iccs |= vax.ICCSInt
		if k.iccs&vax.ICCSIE != 0 {
			c.RequestInterrupt(vax.IPLClock, vax.VecClock)
		}
	}
}

// ReadIPR implements cpu.IPRHandler.
func (k *Clock) ReadIPR(c *cpu.CPU, r vax.IPR) (uint32, bool) {
	switch r {
	case vax.IPRICCS:
		return k.iccs, true
	case vax.IPRNICR:
		return k.nicr, true
	case vax.IPRICR:
		return k.icr, true
	case vax.IPRTODR:
		// Time of year advances with machine cycles.
		return uint32(c.Cycles / 100), true
	}
	return 0, false
}

// WriteIPR implements cpu.IPRHandler.
func (k *Clock) WriteIPR(c *cpu.CPU, r vax.IPR, v uint32) bool {
	switch r {
	case vax.IPRICCS:
		if v&vax.ICCSInt != 0 {
			// Writing the interrupt bit acknowledges it.
			k.iccs &^= vax.ICCSInt
			c.ClearInterrupt(vax.IPLClock)
		}
		if v&vax.ICCSTransfer != 0 {
			k.icr = k.nicr
		}
		k.iccs = k.iccs&^(vax.ICCSRun|vax.ICCSIE) | v&(vax.ICCSRun|vax.ICCSIE)
		return true
	case vax.IPRNICR:
		k.nicr = v
		return true
	case vax.IPRICR:
		return true // read-only; write ignored
	case vax.IPRTODR:
		return true
	}
	return false
}

var _ cpu.Device = (*Clock)(nil)
var _ cpu.IPRHandler = (*Clock)(nil)
