package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Functional options for New. A Config literal sets every plain knob;
// an option attaches something from outside to the new monitor.

// Option adjusts a newly built VMM before New returns it.
type Option func(*VMM)

// WithRecorder attaches a flight recorder: every VM created on the
// monitor gets an event log and latency histograms in it. nil leaves
// recording off; the hot paths then pay one pointer test and allocate
// nothing. EnableRecorder attaches one after construction.
func WithRecorder(rec *trace.Recorder) Option {
	return func(k *VMM) { k.rec = rec }
}

// WithTranslation leaves the monitor unchanged: the superblock tier it
// switched is gone, and every processor runs bound instructions back
// to back on its own.
//
// Deprecated: bench/ is its last caller.
func WithTranslation(bool) Option {
	return func(*VMM) {}
}

// WithMemCache leaves the monitor unchanged: every monitor takes its
// memory from mem.New and returns it with Release.
//
// Deprecated: bench/ is its last caller.
func WithMemCache(*mem.Cache) Option {
	return func(*VMM) {}
}

// Validate rejects configurations that clamping cannot repair. The
// withDefaults pass already absorbs zero values and mild negatives;
// what remains invalid here is a magnitude that would make the machine
// pathological rather than merely slow.
func (cfg Config) Validate() error {
	if cfg.Scheme < RingCompression || cfg.Scheme > SeparateAddressSpace {
		return fmt.Errorf("unknown ring scheme %d", cfg.Scheme)
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
