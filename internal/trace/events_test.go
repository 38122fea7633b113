package trace

import (
	"strings"
	"testing"
)

func TestRecorderRecordSyncEvents(t *testing.T) {
	r := NewRecorder(16)
	v := r.VM(0, "vm0")
	if r.VM(0, "other") != v {
		t.Fatal("VM() must be idempotent per ID")
	}
	for i := uint32(0); i < 5; i++ {
		v.Record(EvVMTrap, uint64(100+i), 0x200+i, i)
	}
	r.Sync() // a no-op: nothing is buffered outside the log
	evs := v.Events(0)
	if len(evs) != 5 {
		t.Fatalf("got %d events", len(evs))
	}
	if e := evs[0]; e.Kind != EvVMTrap || e.Cycle != 100 || e.Arg != 0 || e.VM != 0 || e.PC != 0x200 {
		t.Fatalf("first event %+v", e)
	}
	if evs[4].Cycle != 104 {
		t.Fatalf("events out of order: %+v", evs)
	}
	if got := v.Events(2); len(got) != 2 || got[1].Cycle != 104 {
		t.Fatalf("Events(2) = %+v", got)
	}
}

// TestRecorderDropAccounting: a full log evicts its oldest events and
// counts them as dropped; the retained window is always the newest.
func TestRecorderDropAccounting(t *testing.T) {
	r := NewRecorder(4)
	v := r.VM(3, "vm3")
	for i := 0; i < 10; i++ {
		v.Record(EvShadowFill, uint64(i), 0, 0)
	}
	if v.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", v.Dropped())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Recorder.Dropped = %d, want 6", r.Dropped())
	}
	evs := v.Events(0)
	if len(evs) != 4 || evs[0].Cycle != 6 || evs[3].Cycle != 9 {
		t.Fatalf("retained %+v, want cycles 6..9", evs)
	}
	v.Record(EvShadowFill, 99, 0, 0)
	if evs := v.Events(0); evs[len(evs)-1].Cycle != 99 || v.Dropped() != 7 {
		t.Fatalf("newest event missing or eviction uncounted: %+v, dropped %d", evs, v.Dropped())
	}
}

// TestRecorderAuditView: the audit trail is the audited kinds of every
// VM's log, ordered by (cycle, VM) with log order breaking ties.
func TestRecorderAuditView(t *testing.T) {
	r := NewRecorder(8)
	a, b := r.VM(2, "b"), r.VM(1, "a")
	a.Record(EvShadowFill, 5, 0, 0) // not audited
	a.RecordDetail(EvVMCreated, 10, 0, 0, "created")
	b.Record(EvVMTrap, 10, 0, 0x17)
	a.Record(EvVMTrap, 30, 0, 0x17)
	a.RecordDetail(EvVMHalted, 30, 0, 0, "HALT")
	b.Record(EvReflected, 20, 0, 0)
	got := r.Audit()
	want := []struct {
		vm    int32
		cycle uint64
		kind  Kind
	}{
		{1, 10, EvVMTrap}, {2, 10, EvVMCreated}, {1, 20, EvReflected},
		{2, 30, EvVMTrap}, {2, 30, EvVMHalted},
	}
	if len(got) != len(want) {
		t.Fatalf("audit view %v, want %d events", got, len(want))
	}
	for i, w := range want {
		if g := got[i]; g.VM != w.vm || g.Cycle != w.cycle || g.Kind != w.kind {
			t.Errorf("audit[%d] = %v, want vm%d %s at %d", i, g, w.vm, w.kind, w.cycle)
		}
	}
	if !strings.Contains(got[1].String(), "created") {
		t.Errorf("detail missing from %q", got[1])
	}
	if EvShadowFill.Audited() || !EvVMHalted.Audited() || Kind(NumKinds).Audited() {
		t.Error("audited kind set changed")
	}
}

// TestRecorderDropReleasesVM: Drop removes a destroyed VM's recorder,
// and the table stays in ID order across inserts and removals.
func TestRecorderDropReleasesVM(t *testing.T) {
	r := NewRecorder(4)
	for _, id := range []int{3, 1, 2} {
		r.VM(id, "")
	}
	r.Drop(2)
	r.Drop(7) // unknown IDs are ignored
	vs := r.VMs()
	if len(vs) != 2 || vs[0].ID != 1 || vs[1].ID != 3 {
		t.Fatalf("after Drop(2): %d VMs, want IDs 1 and 3", len(vs))
	}
}

func TestRecorderObserveHist(t *testing.T) {
	r := NewRecorder(8)
	v := r.VM(0, "vm0")
	v.Observe(LatTrap, 10)
	v.Observe(LatTrap, 20)
	v.Observe(LatKCall, 100)
	if v.Hist(LatTrap).Count != 2 || v.Hist(LatKCall).Count != 1 {
		t.Fatal("Observe routed to wrong histogram")
	}
	if v.Hist(LatShadowFill).Count != 0 {
		t.Fatal("untouched histogram must stay empty")
	}
	tbl := HistTable(r)
	for _, want := range []string{"trap", "kcall", "p99"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("HistTable missing %q:\n%s", want, tbl)
		}
	}
}

func TestKindAndLatStrings(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if strings.Contains(k.String(), "event(") {
			t.Errorf("Kind %d lacks a name", k)
		}
	}
	for l := Lat(0); l < NumLat; l++ {
		if strings.Contains(l.String(), "lat(") {
			t.Errorf("Lat %d lacks a name", l)
		}
	}
	if EvVMTrap.String() != "vm-trap" || LatShadowFill.String() != "shadow_fill" {
		t.Error("canonical names changed")
	}
}

func TestFormatEventsAndDisabled(t *testing.T) {
	if !strings.Contains(FormatEvents(nil, 0), "disabled") {
		t.Error("nil recorder must render as disabled")
	}
	if !strings.Contains(HistTable(nil), "disabled") {
		t.Error("nil recorder must render as disabled")
	}
	r := NewRecorder(8)
	v := r.VM(1, "guest")
	v.Record(EvKCallStart, 5, 0x400, 2)
	out := FormatEvents(r, 0)
	for _, want := range []string{"guest", "kcall-start", "vm1", "pc=0x400"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatEvents missing %q:\n%s", want, out)
		}
	}
}
