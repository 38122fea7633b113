package fleet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vax"
)

func newTestManager(t *testing.T) (*Manager, *core.VMM) {
	t.Helper()
	k := core.New(32<<20, core.Config{})
	return NewManager(k, Config{}), k
}

// drive runs quanta until cond holds (or the step budget drains).
func drive(t *testing.T, m *Manager, cond func() bool) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		if cond() {
			return
		}
		if !m.DriveOnce() {
			break
		}
	}
	if !cond() {
		t.Fatal("condition never reached while driving the fleet")
	}
}

func code(t *testing.T, err error) string {
	t.Helper()
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("error %v (%T) is not a typed fleet error", err, err)
	}
	return fe.Code
}

func TestLifecycleHappyPath(t *testing.T) {
	m, k := newTestManager(t)

	golden, err := m.Create(Spec{Name: "golden", Workload: "stamp"})
	if err != nil {
		t.Fatal(err)
	}
	if golden.State != "running" || golden.Tenant != DefaultTenant {
		t.Fatalf("golden = %+v", golden)
	}

	// Let the golden image execute a stamp round before cloning.
	drive(t, m, func() bool { return golden.ID >= 0 && m.mustStat(t, golden.ID).Cycles > 0 })

	clone, err := m.CloneVM(golden.ID, "c1", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if clone.Tenant != "tenant-a" {
		t.Fatalf("clone tenant = %q", clone.Tenant)
	}
	drive(t, m, func() bool { return m.mustStat(t, clone.ID).Cycles > 0 })

	snap, err := m.Snapshot(clone.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Bytes == 0 || snap.Tenant != "tenant-a" {
		t.Fatalf("snapshot = %+v", snap)
	}

	if _, err := m.Halt(clone.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Halt(clone.ID); code(t, err) != "conflict" {
		t.Fatalf("double halt error = %v", err)
	}

	restored, err := m.Restore(snap.ID, "revived")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Tenant != "tenant-a" {
		t.Fatalf("restored tenant = %q (charged to snapshot's tenant)", restored.Tenant)
	}

	for _, id := range []int{clone.ID, restored.ID} {
		info, err := m.Destroy(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != "destroyed" {
			t.Fatalf("destroy state = %q", info.State)
		}
	}
	if len(k.VMs()) != 1 {
		t.Fatalf("%d VMs left, want the golden image only", len(k.VMs()))
	}
	if _, err := m.Stat(clone.ID); code(t, err) != "not_found" {
		t.Fatalf("stat of destroyed vm = %v", err)
	}
}

func (m *Manager) mustStat(t *testing.T, id int) VMInfo {
	t.Helper()
	info, err := m.Stat(id)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestDestroyRecyclesPages(t *testing.T) {
	m, k := newTestManager(t)
	golden, err := m.Create(Spec{Workload: "stamp"})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, m, func() bool { return m.mustStat(t, golden.ID).Cycles > 0 })

	// First lifecycle carves pages (shadow runs, COW frames); repeat
	// lifecycles must then run entirely from the recycled-run pool.
	cycle := func() {
		t.Helper()
		c, err := m.CloneVM(golden.ID, "", "")
		if err != nil {
			t.Fatal(err)
		}
		drive(t, m, func() bool { return m.mustStat(t, c.ID).Cycles > 0 })
		if _, err := m.Destroy(c.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	baseline := k.FreePages()
	for i := 0; i < 5; i++ {
		cycle()
	}
	if got := k.FreePages(); got != baseline {
		t.Fatalf("free pages %d after repeat lifecycles, want baseline %d (page leak)", got, baseline)
	}
}

func TestQuotaAdmission(t *testing.T) {
	m, _ := newTestManager(t)
	m.SetQuota("small", Quota{MaxVMs: 1})

	if _, err := m.Create(Spec{Workload: "stamp", Tenant: "small"}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Create(Spec{Workload: "stamp", Tenant: "small"})
	if code(t, err) != "quota_exceeded" {
		t.Fatalf("over-quota create = %v", err)
	}
	// The neighbor tenant is unaffected by small's breach.
	if _, err := m.Create(Spec{Workload: "stamp", Tenant: "big"}); err != nil {
		t.Fatalf("neighbor create failed: %v", err)
	}

	// A page budget below one guest refuses immediately.
	m.SetQuota("tiny", Quota{MaxPages: guestMem/vax.PageSize - 1})
	if _, err := m.Create(Spec{Workload: "stamp", Tenant: "tiny"}); code(t, err) != "quota_exceeded" {
		t.Fatalf("page-budget create = %v", err)
	}
}

func TestCycleBudgetEnforcement(t *testing.T) {
	m, _ := newTestManager(t)
	m.SetQuota("metered", Quota{MaxCycles: 1})
	vm, err := m.Create(Spec{Workload: "stamp", Tenant: "metered"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Create(Spec{Workload: "stamp", Tenant: "unmetered"})
	if err != nil {
		t.Fatal(err)
	}

	drive(t, m, func() bool { return m.mustStat(t, vm.ID).State == "halted" })
	info := m.mustStat(t, vm.ID)
	if !strings.Contains(info.HaltMsg, "cycle budget") {
		t.Fatalf("halt msg = %q", info.HaltMsg)
	}
	if got := m.mustStat(t, other.ID); got.State != "running" {
		t.Fatalf("neighbor state = %q, want running", got.State)
	}

	// Admission is refused while exhausted, and re-armed by a raise.
	if _, err := m.Create(Spec{Workload: "stamp", Tenant: "metered"}); code(t, err) != "cycle_budget_exhausted" {
		t.Fatalf("exhausted create = %v", err)
	}
	m.SetQuota("metered", Quota{})
	if _, err := m.Create(Spec{Workload: "stamp", Tenant: "metered"}); err != nil {
		t.Fatalf("create after raise failed: %v", err)
	}
}

// TestConsoleResumeAfterRestore pins the observed-output boundary: a
// restored VM's console stream resumes where the API stopped
// streaming, instead of replaying bytes the client already saw.
func TestConsoleResumeAfterRestore(t *testing.T) {
	m, _ := newTestManager(t)
	vm, err := m.Create(Spec{Workload: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, m, func() bool { return m.mustStat(t, vm.ID).ConsoleLen >= 6 })

	chunk, err := m.ConsoleRead(vm.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chunk.Data, "hello") {
		t.Fatalf("console = %q", chunk.Data)
	}

	snap, err := m.Snapshot(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := m.Restore(snap.ID, "revived")
	if err != nil {
		t.Fatal(err)
	}
	if m.mustStat(t, restored.ID).ConsoleLen < 6 {
		t.Fatal("restored VM lost its console backlog")
	}
	again, err := m.ConsoleRead(restored.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Data != "" {
		t.Fatalf("restored stream replayed %q; cursor must resume at the observed boundary", again.Data)
	}
	// An explicit offset still reaches the backlog.
	full, err := m.ConsoleRead(restored.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.Data, "hello") {
		t.Fatalf("explicit-offset read = %q", full.Data)
	}
}

func TestSnapshotEviction(t *testing.T) {
	m, _ := newTestManager(t)
	m.cfg.SnapshotCap = 2
	vm, err := m.Create(Spec{Workload: "stamp"})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, m, func() bool { return m.mustStat(t, vm.ID).Cycles > 0 })

	var ids []string
	for i := 0; i < 3; i++ {
		s, err := m.Snapshot(vm.ID)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	if m.SnapshotByID(ids[0]) != nil {
		t.Fatalf("snapshot %s not evicted at cap 2", ids[0])
	}
	if _, err := m.Restore(ids[0], ""); code(t, err) != "not_found" {
		t.Fatalf("restore of evicted snapshot = %v", err)
	}
	if m.SnapshotByID(ids[2]) == nil {
		t.Fatal("newest snapshot missing")
	}
}

func TestUnknownWorkload(t *testing.T) {
	m, _ := newTestManager(t)
	if _, err := m.Create(Spec{Workload: "nope"}); code(t, err) != "bad_request" {
		t.Fatalf("unknown workload = %v", err)
	}
}

func TestCloneRejectsHaltedSource(t *testing.T) {
	m, _ := newTestManager(t)
	vm, err := m.Create(Spec{Workload: "stamp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Halt(vm.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CloneVM(vm.ID, "", ""); code(t, err) != "conflict" {
		t.Fatalf("clone of halted source = %v", err)
	}
	if _, err := m.CloneVM(99, "", ""); code(t, err) != "not_found" {
		t.Fatalf("clone of missing source = %v", err)
	}
}

func TestSummaryAndAdoption(t *testing.T) {
	m, k := newTestManager(t)
	if _, err := m.Create(Spec{Workload: "stamp", Tenant: "a"}); err != nil {
		t.Fatal(err)
	}
	// A VM created behind the manager's back is adopted at Summary time.
	g, err := guestImage("compute")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateVM(core.VMConfig{
		Name: "stray", MemBytes: guestMem, Image: g.image,
		StartPC: g.start, PreMapped: true, SBR: guestSPT, SLR: guestSPTLen,
	}); err != nil {
		t.Fatal(err)
	}
	sum := m.Summary()
	if len(sum.VMs) != 2 || sum.Live != 2 {
		t.Fatalf("summary = %d VMs / %d live, want 2/2", len(sum.VMs), sum.Live)
	}
	found := false
	for _, v := range sum.VMs {
		if v.Name == "stray" && v.Tenant == DefaultTenant {
			found = true
		}
	}
	if !found {
		t.Fatal("stray VM not adopted under the default tenant")
	}
	if sum.NominalPages != 2*guestMem/vax.PageSize {
		t.Fatalf("nominal pages = %d", sum.NominalPages)
	}
}
