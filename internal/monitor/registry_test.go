package monitor

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
)

// newFleetMonitor builds a fully-equipped monitor: VMM, fleet manager,
// and one live stamp VM (id 0) as the golden image.
func newFleetMonitor(t *testing.T) (*Monitor, *fleet.Manager) {
	t.Helper()
	k := core.New(64<<20, core.Config{})
	mgr := fleet.NewManager(k, fleet.Config{})
	if _, err := mgr.Create(fleet.Spec{Name: "golden", Workload: "stamp"}); err != nil {
		t.Fatal(err)
	}
	m := New(k.CPU)
	m.VMM = k
	m.Fleet = mgr
	return m, mgr
}

// TestEveryCommandRoundTrips drives each registered command through
// args→handler→JSON render: dispatch must succeed with representative
// args and the JSON rendering must marshal.
func TestEveryCommandRoundTrips(t *testing.T) {
	m, _ := newFleetMonitor(t)

	// Representative args per command. The sequence is registry order,
	// so fleet commands see the VMs earlier commands created: setup
	// made vm0 (golden), create adds vm1, clone 0 adds vm2.
	argsFor := map[string][]string{
		"step": {"2"}, "continue": {"10"}, "mem": {"0x80000000"},
		"del": {"0x1000"}, "checkpoint": {"0"},
		"create": {"rt", "compute"}, "clone": {"0"}, "halt": {"2"},
		"snapshot": {"0"}, "destroy": {"2"}, "console": {"0"}, "feed": {"0", "hi"},
		"stat": {"0"},
	}

	seen := 0
	for _, c := range Commands() {
		res, err := m.Dispatch(c.Name, argsFor[c.Name])
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		body := res.JSON
		if body == nil {
			body = map[string]string{"text": res.Text}
		}
		if _, err := json.Marshal(body); err != nil {
			t.Fatalf("%s: JSON render: %v", c.Name, err)
		}
		if res.Quit() != (c.Name == "quit") {
			t.Fatalf("%s: quit = %v", c.Name, res.Quit())
		}
		seen++
	}
	if seen < 20 {
		t.Fatalf("only %d commands registered", seen)
	}

	// Aliases resolve to the same command, and unknown names are typed
	// errors whose REPL text keeps the historical wording.
	if Lookup("vms") != Lookup("fleet") || Lookup("s") != Lookup("step") {
		t.Fatal("alias lookup broken")
	}
	if _, err := m.Dispatch("bogus", nil); err == nil {
		t.Fatal("unknown command dispatched")
	} else if !strings.Contains(err.Error(), `unknown command "bogus"`) {
		t.Fatalf("unknown command error = %v", err)
	}
}

// TestGuardsWithoutFleet pins the typed rejection of fleet commands on
// a monitor with no manager attached.
func TestGuardsWithoutFleet(t *testing.T) {
	k := core.New(16<<20, core.Config{})
	m := New(k.CPU)
	m.VMM = k
	for _, cmd := range []string{"fleet", "create", "clone 0", "halt 0", "snapshot 0", "destroy 0", "console 0", "quota"} {
		out, quit := m.Execute(cmd)
		if quit || !strings.Contains(out, "no fleet manager attached") {
			t.Errorf("%q = %q", cmd, out)
		}
	}
	// stat still works fleet-less (the classic machine dump)…
	if out, _ := m.Execute("stat"); !strings.Contains(out, "instructions") {
		t.Errorf("stat = %q", out)
	}
	// …but its per-VM form needs the manager.
	if out, _ := m.Execute("stat 0"); !strings.Contains(out, "no fleet manager attached") {
		t.Errorf("stat 0 = %q", out)
	}
}

// TestHelpListsFleetCommands keeps help in sync with the registry.
func TestHelpListsFleetCommands(t *testing.T) {
	m, _ := newFleetMonitor(t)
	out, _ := m.Execute("help")
	for _, want := range []string{"step", "break", "snapshot <vm>", "clone <vm>", "quota", "fault seed n [vm]", "recover every n [gens]"} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q", want)
		}
	}
}

// TestReplAndHTTPParity requires the REPL and HTTP surfaces to return
// identical results for stat, snapshot and halt: both dispatch through
// the registry, so the JSON the API returns must equal the JSON the
// REPL's Result carries. Two identical clones on an undriven machine
// make the comparison exact.
func TestReplAndHTTPParity(t *testing.T) {
	m, mgr := newFleetMonitor(t)
	c1, err := mgr.CloneVM(0, "twin-a", "")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := mgr.CloneVM(0, "twin-b", "")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	srv := newTestServer(t, m, &mu)

	stripIdentity := func(v fleet.VMInfo) fleet.VMInfo {
		v.ID, v.Name = 0, ""
		return v
	}

	// stat: REPL result for twin-a vs HTTP result for twin-b.
	res, err := m.Dispatch("stat", []string{itoa(c1.ID)})
	if err != nil {
		t.Fatal(err)
	}
	var httpInfo fleet.VMInfo
	srv.getJSON(t, "/v1/vms/"+itoa(c2.ID), &httpInfo)
	if stripIdentity(res.JSON.(fleet.VMInfo)) != stripIdentity(httpInfo) {
		t.Fatalf("stat parity: repl=%+v http=%+v", res.JSON, httpInfo)
	}

	// snapshot: same source, undriven machine — byte-identical streams.
	res, err = m.Dispatch("snapshot", []string{"0"})
	if err != nil {
		t.Fatal(err)
	}
	replSnap := res.JSON.(fleet.SnapInfo)
	var httpSnap fleet.SnapInfo
	srv.postJSON(t, "/v1/vms/0/snapshot", nil, &httpSnap)
	if replSnap.Bytes != httpSnap.Bytes || replSnap.VM != httpSnap.VM || replSnap.Tenant != httpSnap.Tenant {
		t.Fatalf("snapshot parity: repl=%+v http=%+v", replSnap, httpSnap)
	}

	// halt: one twin per surface, identical outcomes.
	res, err = m.Dispatch("halt", []string{itoa(c1.ID)})
	if err != nil {
		t.Fatal(err)
	}
	replHalt := res.JSON.(fleet.VMInfo)
	var httpHalt fleet.VMInfo
	srv.postJSON(t, "/v1/vms/"+itoa(c2.ID)+"/halt", nil, &httpHalt)
	if replHalt.State != "halted" || stripIdentity(replHalt) != stripIdentity(httpHalt) {
		t.Fatalf("halt parity: repl=%+v http=%+v", replHalt, httpHalt)
	}
}

// TestQuotaErrorsOnBothSurfaces: a quota breach is the same typed
// failure on the REPL (code in the text) and over HTTP (status + code).
func TestQuotaErrorsOnBothSurfaces(t *testing.T) {
	m, _ := newFleetMonitor(t)
	var mu sync.Mutex
	srv := newTestServer(t, m, &mu)

	if out, _ := m.Execute("quota capped 1 0 0"); !strings.Contains(out, "capped") {
		t.Fatalf("quota set = %q", out)
	}
	if out, _ := m.Execute("create first stamp capped"); !strings.Contains(out, "created") {
		t.Fatalf("create = %q", out)
	}

	// REPL: the typed code leads the error text.
	out, _ := m.Execute("create second stamp capped")
	if !strings.Contains(out, "quota_exceeded") || !strings.Contains(out, "vm limit 1") {
		t.Fatalf("REPL breach = %q", out)
	}

	// HTTP: 429 with the same stable code.
	status, body := srv.post(t, "/v1/vms", `{"workload":"stamp","tenant":"capped"}`)
	if status != 429 {
		t.Fatalf("HTTP breach status = %d (%s)", status, body)
	}
	var e struct {
		Error   string `json:"error"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error != "quota_exceeded" || !strings.Contains(e.Message, "vm limit 1") {
		t.Fatalf("HTTP breach body = %+v", e)
	}

	// An unrelated tenant admits fine on both surfaces.
	if out, _ := m.Execute("create ok stamp other"); !strings.Contains(out, "created") {
		t.Fatalf("neighbor create = %q", out)
	}
	if status, body := srv.post(t, "/v1/vms", `{"tenant":"other"}`); status != 200 {
		t.Fatalf("neighbor HTTP create = %d (%s)", status, body)
	}
}

// TestOutOfMemoryOnBothSurfaces: a create the monitor's physical
// memory cannot back is the typed out_of_memory refusal on the REPL
// (code in the text) and a 503 over HTTP, not an internal error.
func TestOutOfMemoryOnBothSurfaces(t *testing.T) {
	k := core.New(2<<20, core.Config{})
	m := New(k.CPU)
	m.VMM = k
	m.Fleet = fleet.NewManager(k, fleet.Config{})
	var mu sync.Mutex
	srv := newTestServer(t, m, &mu)

	// REPL: create until the monitor runs out; the typed code leads the
	// error text.
	var out string
	for i := 0; i < 64; i++ {
		if out, _ = m.Execute("create vm" + itoa(i) + " stamp"); !strings.Contains(out, "created") {
			break
		}
	}
	if !strings.Contains(out, "out_of_memory") {
		t.Fatalf("REPL create on a full monitor = %q", out)
	}

	// HTTP: 503 with the same stable code.
	status, body := srv.post(t, "/v1/vms", `{"workload":"stamp"}`)
	if status != 503 {
		t.Fatalf("HTTP create on a full monitor: status %d (%s)", status, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error != "out_of_memory" {
		t.Fatalf("HTTP create on a full monitor: body %s", body)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
