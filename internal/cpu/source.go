package cpu

// The processor's trace.Source implementation (structural — this
// package does not import trace). Counter names are part of the
// observable surface; keep them stable.

// Name identifies the processor counter source.
func (c *CPU) Name() string { return "cpu" }

// Counters emits the processor's counters.
func (c *CPU) Counters(emit func(name string, v uint64)) {
	s := c.Stats
	emit("cycles", c.Cycles)
	emit("instructions", s.Instructions)
	emit("exceptions", s.Exceptions)
	emit("interrupts", s.Interrupts)
	emit("vm_traps", s.VMTraps)
	emit("priv_traps", s.PrivTraps)
	emit("chm", s.CHMs)
	emit("rei", s.REIs)
	emit("movpsl", s.MOVPSLs)
	emit("probe", s.Probes)
	emit("decode_hits", s.DecodeHits)
	emit("decode_misses", s.DecodeMisses)
	emit("decode_invalidations", s.DecodeInvalidations)
	emit("bound_hits", s.BoundHits)
}
