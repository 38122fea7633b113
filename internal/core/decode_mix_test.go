package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// TestMixDecodeCounts pins the decode cache's effectiveness on the
// §7.3 editing+TP mix in a VM, the guest behind the bench/ workload
// vm_mix. MiniOS keeps kernel data and stacks on its code pages, and
// the VMM pushes exception frames with writePhys, so dropping a whole
// page's decodes on every store read a hit ratio of 0.86 and an
// invalidation for every 9 instructions. Stores that drop only the
// decodes they overwrite keep the ratio above 0.95 and invalidations
// under 1% of instructions. The bound form (register/literal operands
// and the MOV family's memory moves) must run at least 85% of the
// instructions: a bound path that always fell back would pass every
// correctness test and fail only here.
func TestMixDecodeCounts(t *testing.T) {
	im, err := vmos.Build(vmos.Config{Target: vmos.TargetVM, Processes: workload.Mix(500, 250, 16), Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	k := core.New(16<<20, core.Config{})
	defer k.Release()
	vm, err := vmos.BootVM(k, im, 64)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(50_000_000)
	if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
		t.Fatalf("guest did not halt cleanly: %t %q", h, msg)
	}
	s := k.CPU.Stats
	ratio := float64(s.DecodeHits) / float64(s.DecodeHits+s.DecodeMisses)
	inv := float64(s.DecodeInvalidations) / float64(s.Instructions)
	bound := float64(s.BoundHits) / float64(s.Instructions)
	t.Logf("%d instructions: hit ratio %.4f, %d invalidations (%.3f%%), bound %.4f",
		s.Instructions, ratio, s.DecodeInvalidations, 100*inv, bound)
	if ratio < 0.95 {
		t.Errorf("decode hit ratio %.4f, want at least 0.95", ratio)
	}
	if inv >= 0.01 {
		t.Errorf("%d invalidations in %d instructions, want under 1%%", s.DecodeInvalidations, s.Instructions)
	}
	if bound < 0.85 {
		t.Errorf("%d bound hits in %d instructions, want at least 85%%", s.BoundHits, s.Instructions)
	}
}
