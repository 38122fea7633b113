// Package fault is a deterministic, seedable fault-injection plan for
// the VMM experiments. An Injector is built once from a seed and a
// Config; every schedule (bus-error windows, clock-interrupt storms,
// shadow-PTE corruption events) and every per-operation dice roll comes
// from the same seeded PRNG, so a campaign run replays exactly from its
// seed. The injector knows nothing about the VMM: callers ask it
// questions ("does this disk attempt fail?", "is this physical range
// inside a bus-error window at this tick?") and apply the consequences
// themselves.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
)

// DiskOutcome is the injector's verdict on one disk transfer attempt.
type DiskOutcome int

const (
	// DiskOK lets the attempt through.
	DiskOK DiskOutcome = iota
	// DiskTransient fails the attempt but a bounded retry may succeed.
	DiskTransient
	// DiskPermanent fails the operation irrecoverably: retries are
	// pointless and the error must surface to the guest.
	DiskPermanent
)

func (o DiskOutcome) String() string {
	switch o {
	case DiskTransient:
		return "transient"
	case DiskPermanent:
		return "permanent"
	}
	return "ok"
}

// Config describes a fault plan. Zero values disable each fault class.
type Config struct {
	// TargetVM selects the VM the plan injects into; a negative value
	// targets every VM.
	TargetVM int

	// TargetVMs, when non-empty, overrides TargetVM with an explicit
	// victim set — the recovery campaign aims different fault classes
	// at different VMs of one machine.
	TargetVMs []int

	// TransientDiskRate is the per-operation probability that a disk
	// transfer starts a transient error burst of 1..TransientBurst
	// failed attempts; PermanentDiskRate is the per-operation
	// probability of a permanent device error. Both are rolled once per
	// operation (attempt 0), not per retry.
	TransientDiskRate float64
	TransientBurst    int
	PermanentDiskRate float64

	// BusWindows bus-error windows, each BusWindowTicks ticks long and
	// BusRangeBytes bytes wide, are placed uniformly over the horizon
	// and over [BusBase, BusBase+BusSpan) in physical address space.
	// A DMA range overlapping an active window takes a bus error.
	BusWindows     int
	BusWindowTicks uint64
	BusBase        uint32
	BusSpan        uint32
	BusRangeBytes  uint32

	// Storms clock-interrupt storms of StormTicks ticks each: while a
	// storm is active the timer line "sticks" and the target VM sees a
	// clock interrupt at every delivery opportunity.
	Storms     int
	StormTicks uint64

	// PTECorruptions shadow-PTE corruption events spread over the
	// horizon: each flips the frame number of one live shadow PTE.
	PTECorruptions int

	// CkptCorruptions poisons the newest checkpoint generation of a
	// targeted VM at recovery time, for the first n recoveries: the
	// supervisor must reject the corrupted image (CRC) and fall back a
	// generation.
	CkptCorruptions int

	// Horizon is the tick range over which scheduled events spread.
	Horizon uint64
}

// DefaultConfig is a moderate all-classes plan aimed at targetVM,
// suitable for interactive use from the monitor.
func DefaultConfig(targetVM int) Config {
	return Config{
		TargetVM:          targetVM,
		TransientDiskRate: 0.05,
		TransientBurst:    2,
		PermanentDiskRate: 0.02,
		BusWindows:        1,
		BusWindowTicks:    2,
		BusSpan:           0x10000,
		BusRangeBytes:     1024,
		Storms:            1,
		StormTicks:        2,
		PTECorruptions:    2,
		Horizon:           200,
	}
}

// Stats counts what the plan actually injected (scheduled events that
// were never consulted or never hit do not count).
type Stats struct {
	TransientBursts uint64 // transient error bursts started
	TransientFails  uint64 // individual attempts failed transiently
	PermanentErrors uint64
	BusErrors       uint64
	StormDeliveries uint64 // delivery opportunities inside a storm
	PTECorruptions  uint64 // corruption events applied by the caller
	CkptCorruptions uint64 // checkpoint generations poisoned by the caller
}

// window is a half-open tick range, optionally with a physical range.
type window struct {
	from, to    uint64
	base, limit uint32
}

func (w window) activeAt(tick uint64) bool { return tick >= w.from && tick < w.to }

// Injector answers fault questions deterministically from its seed.
type Injector struct {
	seed int64
	cfg  Config
	rng  *rand.Rand

	busWindows []window
	storms     []window
	corrupts   []uint64 // sorted maturity ticks, consumed front to back

	failLeft int // remaining attempts of the current transient burst
	ckptLeft int // remaining checkpoint-corruption events

	Stats Stats
}

// New builds the plan: all schedules are drawn up front so the
// injection sequence depends only on (seed, cfg) and the order of the
// caller's questions.
func New(seed int64, cfg Config) *Injector {
	if cfg.TransientBurst < 1 {
		cfg.TransientBurst = 1
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 100
	}
	if cfg.BusWindowTicks == 0 {
		cfg.BusWindowTicks = 2
	}
	if cfg.BusRangeBytes == 0 {
		cfg.BusRangeBytes = 512
	}
	if cfg.StormTicks == 0 {
		cfg.StormTicks = 2
	}
	i := &Injector{seed: seed, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		ckptLeft: cfg.CkptCorruptions}
	for n := 0; n < cfg.BusWindows; n++ {
		from := uint64(i.rng.Int63n(int64(cfg.Horizon)))
		base := cfg.BusBase
		if cfg.BusSpan > 0 {
			base += uint32(i.rng.Intn(int(cfg.BusSpan)))
		}
		i.busWindows = append(i.busWindows, window{
			from: from, to: from + cfg.BusWindowTicks,
			base: base, limit: base + cfg.BusRangeBytes,
		})
	}
	for n := 0; n < cfg.Storms; n++ {
		from := uint64(i.rng.Int63n(int64(cfg.Horizon)))
		i.storms = append(i.storms, window{from: from, to: from + cfg.StormTicks})
	}
	for n := 0; n < cfg.PTECorruptions; n++ {
		i.corrupts = append(i.corrupts, uint64(i.rng.Int63n(int64(cfg.Horizon))))
	}
	sort.Slice(i.corrupts, func(a, b int) bool { return i.corrupts[a] < i.corrupts[b] })
	return i
}

// Seed returns the plan's seed.
func (i *Injector) Seed() int64 { return i.seed }

// Config returns the plan's effective configuration.
func (i *Injector) Config() Config { return i.cfg }

// Targets reports whether the plan injects into the given VM (negative
// TargetVM matches everything; a non-empty TargetVMs set wins over
// TargetVM).
func (i *Injector) Targets(vm int) bool {
	if len(i.cfg.TargetVMs) > 0 {
		for _, t := range i.cfg.TargetVMs {
			if vm == t {
				return true
			}
		}
		return false
	}
	return i.cfg.TargetVM < 0 || vm == i.cfg.TargetVM
}

// DiskAttempt is consulted once per disk transfer attempt; attempt 0 is
// the fresh operation (the dice are rolled), attempt > 0 is a retry
// (the current burst, if any, plays out).
func (i *Injector) DiskAttempt(vm, attempt int, write bool) DiskOutcome {
	if !i.Targets(vm) {
		return DiskOK
	}
	if attempt == 0 {
		i.failLeft = 0
		r := i.rng.Float64()
		switch {
		case r < i.cfg.PermanentDiskRate:
			i.Stats.PermanentErrors++
			return DiskPermanent
		case r < i.cfg.PermanentDiskRate+i.cfg.TransientDiskRate:
			i.Stats.TransientBursts++
			i.failLeft = 1 + i.rng.Intn(i.cfg.TransientBurst)
		}
	}
	if i.failLeft > 0 {
		i.failLeft--
		i.Stats.TransientFails++
		return DiskTransient
	}
	return DiskOK
}

// BusErrorHit reports whether the physical range [base, base+n) falls
// inside a bus-error window active at tick.
func (i *Injector) BusErrorHit(vm int, tick uint64, base, n uint32) bool {
	if !i.Targets(vm) {
		return false
	}
	for _, w := range i.busWindows {
		if w.activeAt(tick) && base < w.limit && w.base < base+n {
			i.Stats.BusErrors++
			return true
		}
	}
	return false
}

// StormHit reports whether a clock-interrupt storm is active at tick
// for the given VM; each true answer is one storm delivery.
func (i *Injector) StormHit(vm int, tick uint64) bool {
	if !i.Targets(vm) {
		return false
	}
	for _, w := range i.storms {
		if w.activeAt(tick) {
			i.Stats.StormDeliveries++
			return true
		}
	}
	return false
}

// TakeCorruption consumes one matured shadow-PTE corruption event for
// the given VM, if any.
func (i *Injector) TakeCorruption(vm int, tick uint64) bool {
	if !i.Targets(vm) || len(i.corrupts) == 0 || i.corrupts[0] > tick {
		return false
	}
	i.corrupts = i.corrupts[1:]
	return true
}

// NoteCorruption records that the caller applied a corruption event.
func (i *Injector) NoteCorruption() { i.Stats.PTECorruptions++ }

// TakeCkptCorruption consumes one checkpoint-corruption event for the
// given VM, if any remain: count-based rather than tick-based, because
// the events fire at recovery time, whenever that happens to be.
func (i *Injector) TakeCkptCorruption(vm int) bool {
	if !i.Targets(vm) || i.ckptLeft == 0 {
		return false
	}
	i.ckptLeft--
	return true
}

// NoteCkptCorruption records that the caller poisoned a generation.
func (i *Injector) NoteCkptCorruption() { i.Stats.CkptCorruptions++ }

// Pick returns a deterministic choice in [0, n) for the caller's own
// randomized decisions (which PTE to corrupt, which bit to flip).
func (i *Injector) Pick(n int) int {
	if n <= 1 {
		return 0
	}
	return i.rng.Intn(n)
}

// Summary renders the applied-fault counters on one line.
func (i *Injector) Summary() string {
	s := i.Stats
	line := fmt.Sprintf(
		"seed %d: transient bursts %d (%d failed attempts), permanent %d, bus errors %d, storm deliveries %d, pte corruptions %d (%d pending)",
		i.seed, s.TransientBursts, s.TransientFails, s.PermanentErrors,
		s.BusErrors, s.StormDeliveries, s.PTECorruptions, len(i.corrupts))
	if i.cfg.CkptCorruptions > 0 {
		line += fmt.Sprintf(", ckpt corruptions %d (%d pending)", s.CkptCorruptions, i.ckptLeft)
	}
	return line
}
