package service_test

// compat_test.go — the service boundary for fields that JobSpec,
// Result and core.Stats no longer carry. A new request that names one
// is rejected at admission; a job log written while they existed
// still replays.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/service"
)

// TestSubmitRejectsBoundedField: POST /jobs decodes with
// DisallowUnknownFields, so a spec carrying the removed "bounded"
// field is a 400 naming the field, and no job is queued.
func TestSubmitRejectsBoundedField(t *testing.T) {
	ctx := context.Background()
	mgr, err := service.Start(ctx, service.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Drain(ctx)
	srv := httptest.NewServer(service.NewServer(mgr))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"app":"tpch/Q6","bounded":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, `"bounded"`) {
		t.Fatalf("error does not name the unknown field: %s", body)
	}
	if jobs := mgr.List(); len(jobs) != 0 {
		t.Fatalf("rejected spec was queued: %+v", jobs)
	}
}

// TestStoreReplaysBoundedRecords: a job log line written while the
// checker had its bounded mode carries "bounded" in its spec and that
// mode's counters in its stats. The store decodes leniently,
// so the job replays with everything that still exists intact.
func TestStoreReplaysBoundedRecords(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	log := `{"type":"job","id":4,"state":"queued","spec":{"app":"tpch/Q6","seed":1,"bounded":2},"ts_us":1}
{"type":"job","id":4,"state":"running","ts_us":2}
{"type":"job","id":4,"state":"done","sql":"select 1","stats":{"AppInvocations":151,"Workers":2,"BoundedBound":2,"MutantsTotal":9,"MutantsKilledStatic":3,"MutantsKilledWitness":5,"MutantsProvenEquivalent":1,"MutantsUnresolved":0,"ExecMode":"vector"},"ts_us":3}
`
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("legacy records discarded as torn: %d bytes", rec.TornBytes)
	}
	if len(rec.Jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(rec.Jobs))
	}
	j := rec.Jobs[0]
	if j.ID != 4 || j.State != service.StateDone || j.SQL != "select 1" || j.Spec.App != "tpch/Q6" {
		t.Fatalf("replayed job: %+v", j)
	}
	if j.Stats.AppInvocations != 151 || j.Stats.ExecMode != "vector" {
		t.Fatalf("replayed stats: %+v", j.Stats)
	}

	// A manager restarted over the log serves the job as history.
	mgr, err := service.Start(ctx, service.Config{Workers: 1, StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Drain(ctx)
	res, err := mgr.Result(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateDone || res.AppInvocations != 151 {
		t.Fatalf("recovered result: %+v", res)
	}
}
