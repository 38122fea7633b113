package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// The soak driver: sustained API-driven VM lifecycles against a real
// in-process HTTP server, exercising the whole stack — client, mux,
// registry dispatch, fleet manager, monitor, page recycling — exactly
// as an external operator would. It reports latency histograms and
// verifies the fleet leaks neither VMs nor pages: after the run, the
// pages in use (carved and not parked for reuse) are back at the
// warm-up baseline.

// SoakOptions tunes a soak run.
type SoakOptions struct {
	// Lifecycles is the total clone→snapshot→halt→restore→destroy
	// cycles to run (default 200).
	Lifecycles int
	// Clients is the number of concurrent API clients (default 8).
	Clients int
	// Tenants spreads the clones across n tenants (default 4).
	Tenants int
	// MemMB sizes the monitor's physical memory (default 64).
	MemMB int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// SoakReport is the outcome of a soak run.
type SoakReport struct {
	Lifecycles int
	Restores   int
	Errors     int

	// Latency histograms in microseconds, one per lifecycle phase.
	Clone, Snapshot, Restore, Destroy trace.Hist

	// Leak accounting: pages in use (core.VMM.PagesInUse) at the
	// post-warm-up baseline and after the run, and VMs left beyond the
	// golden image.
	BaselineInUse, FinalInUse uint32
	LeakedVMs                 int
}

// Leaked reports whether the run leaked VMs or pages.
func (r *SoakReport) Leaked() bool {
	return r.LeakedVMs > 0 || r.FinalInUse != r.BaselineInUse
}

// String renders the report's summary lines.
func (r *SoakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: %d lifecycles (%d restores), %d errors\n", r.Lifecycles, r.Restores, r.Errors)
	row := func(name string, h *trace.Hist) {
		if h.Count == 0 {
			return
		}
		fmt.Fprintf(&b, "  %-8s n=%-6d p50=%dµs  p95=%dµs  p99=%dµs\n",
			name, h.Count, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	}
	row("clone", &r.Clone)
	row("snapshot", &r.Snapshot)
	row("restore", &r.Restore)
	row("destroy", &r.Destroy)
	fmt.Fprintf(&b, "  pages: baseline-in-use %d  final-in-use %d  leaked-vms %d", r.BaselineInUse, r.FinalInUse, r.LeakedVMs)
	return b.String()
}

// soakClient is one API consumer's view of the server plus its
// goroutine-local latency shards (merged at the end).
type soakClient struct {
	base                              string
	hc                                *http.Client
	clone, snapshot, restore, destroy trace.Hist
	restores, errs                    int
}

func (c *soakClient) call(method, path string, body any) (map[string]any, int, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, resp.StatusCode, err
	}
	return out, resp.StatusCode, nil
}

// lifecycle runs one full VM lifecycle over the API: clone the golden
// image, let it run, snapshot it, halt and destroy it, and (when
// withRestore) resurrect the snapshot and destroy that VM too.
func (c *soakClient) lifecycle(golden int, tenant string, withRestore bool) error {
	t0 := time.Now()
	out, status, err := c.call("POST", fmt.Sprintf("/v1/vms/%d/clone", golden),
		map[string]string{"tenant": tenant})
	c.clone.Observe(uint64(time.Since(t0) / time.Microsecond))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("clone: %v %v", status, out["message"])
	}
	id := int(out["id"].(float64))

	t0 = time.Now()
	out, status, err = c.call("POST", fmt.Sprintf("/v1/vms/%d/snapshot", id), nil)
	c.snapshot.Observe(uint64(time.Since(t0) / time.Microsecond))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("snapshot vm%d: %v %v", id, status, out["message"])
	}
	snapID, _ := out["id"].(string)

	if out, status, err = c.call("POST", fmt.Sprintf("/v1/vms/%d/halt", id), nil); err != nil {
		return err
	} else if status != http.StatusOK {
		return fmt.Errorf("halt vm%d: %v %v", id, status, out["message"])
	}

	t0 = time.Now()
	out, status, err = c.call("DELETE", fmt.Sprintf("/v1/vms/%d", id), nil)
	c.destroy.Observe(uint64(time.Since(t0) / time.Microsecond))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("destroy vm%d: %v %v", id, status, out["message"])
	}

	if !withRestore || snapID == "" {
		return nil
	}
	t0 = time.Now()
	out, status, err = c.call("POST", "/v1/snapshots/"+snapID+"/restore", nil)
	c.restore.Observe(uint64(time.Since(t0) / time.Microsecond))
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		return nil // snapshot evicted under pressure: not a failure
	}
	if status != http.StatusOK {
		return fmt.Errorf("restore %s: %v %v", snapID, status, out["message"])
	}
	c.restores++
	rid := int(out["id"].(float64))
	if out, status, err = c.call("DELETE", fmt.Sprintf("/v1/vms/%d", rid), nil); err != nil {
		return err
	} else if status != http.StatusOK {
		return fmt.Errorf("destroy restored vm%d: %v %v", rid, status, out["message"])
	}
	return nil
}

// Soak stands up a monitor + fleet + HTTP server and hammers it with
// concurrent API-driven lifecycles. The machine uses the serial engine
// so page accounting is exact; the drive loop keeps guests executing
// between API calls, so clones privatize pages and snapshots capture
// live state.
func Soak(opts SoakOptions) (*SoakReport, error) {
	if opts.Lifecycles <= 0 {
		opts.Lifecycles = 200
	}
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	if opts.Tenants <= 0 {
		opts.Tenants = 4
	}
	if opts.MemMB <= 0 {
		opts.MemMB = 64
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Short quanta: the drive loop holds the machine mutex for one
	// quantum at a time, so the quantum bounds every API call's queueing
	// delay — soak latency measures the control plane, not lock tenure.
	k := core.New(uint32(opts.MemMB)<<20, core.Config{})
	mgr := fleet.NewManager(k, fleet.Config{Quantum: 5_000})
	mon := New(k.CPU)
	mon.VMM = k
	mon.Fleet = mgr

	var mu sync.Mutex
	srv := httptest.NewServer(APIHandler(mon, &mu))
	defer srv.Close()
	mgr.Start(&mu)
	defer mgr.Stop()

	golden, err := func() (fleet.VMInfo, error) {
		mu.Lock()
		defer mu.Unlock()
		return mgr.Create(fleet.Spec{Name: "golden", Workload: "stamp"})
	}()
	if err != nil {
		return nil, fmt.Errorf("soak: creating golden image: %w", err)
	}

	// epoch runs the full lifecycle load once: Clients concurrent API
	// consumers splitting Lifecycles cycles, every fourth with a
	// snapshot-restore leg to keep the contiguous-geometry recycling
	// path hot.
	epoch := func() []*soakClient {
		clients := make([]*soakClient, opts.Clients)
		var wg sync.WaitGroup
		perClient := opts.Lifecycles / opts.Clients
		extra := opts.Lifecycles % opts.Clients
		for i := range clients {
			c := &soakClient{base: srv.URL, hc: srv.Client()}
			clients[i] = c
			n := perClient
			if i < extra {
				n++
			}
			tenant := fmt.Sprintf("tenant%d", i%opts.Tenants)
			wg.Add(1)
			go func(c *soakClient, n int, tenant string) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					if err := c.lifecycle(golden.ID, tenant, j%4 == 3); err != nil {
						c.errs++
						logf("soak: %v", err)
					}
				}
			}(c, n, tenant)
		}
		wg.Wait()
		return clients
	}

	// Two identical epochs. The first reaches steady state (the golden
	// image's own shadow and COW footprint); the second is gated. The
	// gate counts pages in use, not FreePages: the bump allocator never
	// un-carves, so a gated epoch that happens to overlap one more
	// restore than the warm-up carves a run the pool then keeps, and
	// FreePages drops with nothing leaked. Pages in use return to the
	// baseline unless a page really leaked, and any VM beyond the
	// golden image is a lifecycle leak.
	warm := epoch()
	mu.Lock()
	baseline := k.PagesInUse()
	baseVMs := len(k.VMs())
	mu.Unlock()
	logf("soak: warm-up epoch done (%d lifecycles), baseline pages in use %d", opts.Lifecycles, baseline)
	clients := epoch()
	mgr.Stop()

	rep := &SoakReport{Lifecycles: 2 * opts.Lifecycles, BaselineInUse: baseline}
	for _, c := range warm {
		rep.Restores += c.restores
		rep.Errors += c.errs
	}
	for _, c := range clients {
		rep.Clone.Add(&c.clone)
		rep.Snapshot.Add(&c.snapshot)
		rep.Restore.Add(&c.restore)
		rep.Destroy.Add(&c.destroy)
		rep.Restores += c.restores
		rep.Errors += c.errs
	}
	mu.Lock()
	rep.FinalInUse = k.PagesInUse()
	rep.LeakedVMs = len(k.VMs()) - baseVMs
	mu.Unlock()
	return rep, nil
}
