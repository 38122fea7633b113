package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Functional options for New. A Config literal sets every plain knob;
// the options below are the attachments the experiment harness, the
// benchmark module and vaxmon compose at construction (a flight
// recorder, a memory cache).

// Option adjusts a Config before validation.
type Option func(*Config)

// WithRecorder attaches a flight recorder (nil leaves recording off).
func WithRecorder(rec *trace.Recorder) Option {
	return func(cfg *Config) { cfg.Recorder = rec }
}

// WithTranslation leaves the Config unchanged: the superblock tier it
// switched is gone, and every processor runs bound instructions back
// to back on its own.
//
// Deprecated: bench/ is its last caller.
func WithTranslation(bool) Option {
	return func(*Config) {}
}

// WithMemCache routes the monitor's physical-memory allocation and
// release through a goroutine-confined backing-store cache instead of
// the global pool, so concurrent harness workers booting and
// discarding machines don't contend on the pool mutex. The cache must
// only be used from one goroutine at a time (nil keeps the global
// pool).
func WithMemCache(c *mem.Cache) Option {
	return func(cfg *Config) { cfg.MemCache = c }
}

// Validate rejects configurations that clamping cannot repair. The
// withDefaults pass already absorbs zero values and mild negatives;
// what remains invalid here is a magnitude that would make the machine
// pathological rather than merely slow.
func (cfg Config) Validate() error {
	if cfg.Scheme < RingCompression || cfg.Scheme > SeparateAddressSpace {
		return fmt.Errorf("unknown ring scheme %d", cfg.Scheme)
	}
	if cfg.FillBatch > vax.PageSize/4 {
		return fmt.Errorf("FillBatch %d exceeds one guest PTE page (%d)", cfg.FillBatch, vax.PageSize/4)
	}
	if cfg.PrefetchGroup > vax.PageSize/4 {
		return fmt.Errorf("PrefetchGroup %d exceeds one guest PTE page (%d)", cfg.PrefetchGroup, vax.PageSize/4)
	}
	if cfg.CostScalePercent < 0 {
		return fmt.Errorf("CostScalePercent must be non-negative, got %d", cfg.CostScalePercent)
	}
	if cfg.CheckpointGenerations < 0 || cfg.CheckpointGenerations > 64 {
		return fmt.Errorf("CheckpointGenerations must be in [0, 64], got %d", cfg.CheckpointGenerations)
	}
	if cfg.RecoverBudget < 0 {
		return fmt.Errorf("RecoverBudget must be non-negative, got %d", cfg.RecoverBudget)
	}
	return nil
}
