// Package dev provides the device models of the simulated VAX system:
// the console (IPR-based, as on real VAXes), the interval clock, and a
// block-storage disk controller reachable both through memory-mapped
// CSRs (the typical VAX I/O mechanism of Section 4.4.3 of the paper)
// and through direct block operations used by the VMM's KCALL start-I/O
// path.
package dev

import (
	"bytes"

	"repro/internal/cpu"
	"repro/internal/vax"
)

// Console models the VAX console terminal, accessed through the RXCS/
// RXDB/TXCS/TXDB internal processor registers.
type Console struct {
	out   bytes.Buffer
	in    []byte
	rxIE  bool
	txIE  bool
	rxInt bool
}

// NewConsole creates an idle console.
func NewConsole() *Console { return &Console{} }

// Output returns everything written to the console so far.
func (t *Console) Output() string { return t.out.String() }

// Feed queues input bytes for the receiver.
func (t *Console) Feed(s string) { t.in = append(t.in, s...) }

// rxDue reports whether the receiver interrupt posts at the next tick.
func (t *Console) rxDue() bool { return t.rxIE && len(t.in) > 0 && !t.rxInt }

// Deadline implements cpu.Device: 0 while a receive interrupt is due
// (the next tick posts it), unbounded otherwise.
func (t *Console) Deadline() uint64 {
	if t.rxDue() {
		return 0
	}
	return ^uint64(0)
}

// Tick implements cpu.Device.
func (t *Console) Tick(c *cpu.CPU, cycles uint64) {
	if t.rxDue() {
		t.rxInt = true
		c.RequestInterrupt(vax.IPLConsole, vax.VecConsole)
	}
}

// ReadIPR implements cpu.IPRHandler.
func (t *Console) ReadIPR(c *cpu.CPU, r vax.IPR) (uint32, bool) {
	switch r {
	case vax.IPRRXCS:
		v := uint32(0)
		if len(t.in) > 0 {
			v |= vax.ConsoleReady
		}
		if t.rxIE {
			v |= vax.ConsoleIE
		}
		return v, true
	case vax.IPRRXDB:
		if len(t.in) == 0 {
			return 0, true
		}
		b := t.in[0]
		t.in = t.in[1:]
		t.rxInt = false
		return uint32(b), true
	case vax.IPRTXCS:
		// The transmitter is always ready (the host buffer never fills).
		v := vax.ConsoleReady
		if t.txIE {
			v |= vax.ConsoleIE
		}
		return v, true
	case vax.IPRTXDB:
		return 0, true
	}
	return 0, false
}

// WriteIPR implements cpu.IPRHandler.
func (t *Console) WriteIPR(c *cpu.CPU, r vax.IPR, v uint32) bool {
	switch r {
	case vax.IPRRXCS:
		t.rxIE = v&vax.ConsoleIE != 0
		return true
	case vax.IPRTXCS:
		t.txIE = v&vax.ConsoleIE != 0
		return true
	case vax.IPRTXDB:
		t.out.WriteByte(byte(v))
		return true
	case vax.IPRRXDB:
		return true
	}
	return false
}

var _ cpu.Device = (*Console)(nil)
var _ cpu.IPRHandler = (*Console)(nil)
