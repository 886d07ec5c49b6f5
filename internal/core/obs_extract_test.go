package core_test

// Extraction-level tests of the observability layer: the probe
// ledger's worker-count byte-identity (golden file), the ledger/stats
// count invariant, the span tree on Extraction.Trace, and the cache
// accounting of Stats.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// tracedExtract runs one extraction with full observability and
// returns the extraction plus its serialized trace.
func tracedExtract(t *testing.T, sql string, workers int) (*core.Extraction, *obs.Ledger, []byte) {
	t.Helper()
	db := warehouseDB(t, 25, 50, 160)
	cfg := defaultCfg()
	cfg.Workers = workers
	cfg.Tracer = obs.NewTracer("extract")
	cfg.Ledger = obs.NewLedger()
	cfg.Metrics = obs.NewMetrics()
	exe := app.MustSQLExecutable("golden", sql)
	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v\nquery: %s", workers, err, sql)
	}
	var buf bytes.Buffer
	header := obs.RunHeader{App: exe.Name(), Workers: workers, Seed: cfg.Seed}
	if err := obs.WriteTrace(&buf, header, ext.Trace, cfg.Ledger); err != nil {
		t.Fatal(err)
	}
	return ext, cfg.Ledger, buf.Bytes()
}

// TestProbeLedgerGoldenAcrossWorkers: the full trace of an extraction
// — run header, span tree, probe ledger — strips to byte-identical
// JSONL for 1 and 8 workers, and matches the checked-in golden file.
// Regenerate with `go test ./internal/core -run Golden -update`.
func TestProbeLedgerGoldenAcrossWorkers(t *testing.T) {
	sql := concurrencyQueries[1] // joins + filters: exercises every probe kind
	_, _, trace1 := tracedExtract(t, sql, 1)
	_, _, trace8 := tracedExtract(t, sql, 8)

	strip := func(raw []byte) []byte {
		out, err := obs.StripVolatile(raw)
		if err != nil {
			t.Fatalf("trace does not strip: %v", err)
		}
		return out
	}
	s1, s8 := strip(trace1), strip(trace8)
	if !bytes.Equal(s1, s8) {
		t.Fatalf("stripped traces differ between 1 and 8 workers:\n%s", firstDiff(s1, s8))
	}

	golden := filepath.Join("testdata", "ledger_golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, s1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(s1, want) {
		t.Fatalf("trace deviates from golden file (run with -update if the pipeline changed):\n%s",
			firstDiff(s1, want))
	}
}

// firstDiff renders the first differing line of two JSONL blobs.
func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return "line " + string(rune('0'+i%10)) + ":\n" + la[i] + "\nvs\n" + lb[i]
		}
	}
	return "line counts differ"
}

// TestLedgerCountInvariant: the ledger records exactly one event per
// executable invocation plus one per cache hit, and the trace
// validates against the schema with matching tallies.
func TestLedgerCountInvariant(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ext, ledger, trace := tracedExtract(t, concurrencyQueries[3], workers)
		wantProbes := ext.Stats.AppInvocations + ext.Stats.CacheHits
		if got := int64(ledger.Len()); got != wantProbes {
			t.Errorf("workers=%d: ledger has %d events, want invocations+hits = %d+%d = %d",
				workers, got, ext.Stats.AppInvocations, ext.Stats.CacheHits, wantProbes)
		}
		sum, err := obs.Validate(bytes.NewReader(trace))
		if err != nil {
			t.Fatalf("workers=%d: trace does not validate: %v", workers, err)
		}
		if int64(sum.Probes) != wantProbes {
			t.Errorf("workers=%d: validator counted %d probes, want %d", workers, sum.Probes, wantProbes)
		}
		if int64(sum.Executed()) != ext.Stats.AppInvocations {
			t.Errorf("workers=%d: validator counted %d executions, want %d",
				workers, sum.Executed(), ext.Stats.AppInvocations)
		}
		if int64(sum.Hits) != ext.Stats.CacheHits {
			t.Errorf("workers=%d: validator counted %d hits, want %d", workers, sum.Hits, ext.Stats.CacheHits)
		}
	}
}

// TestExtractionTrace: Extract returns the finished span tree — one
// span per pipeline phase under the root — and none when no tracer is
// configured.
func TestExtractionTrace(t *testing.T) {
	ext, _, _ := tracedExtract(t, concurrencyQueries[0], 2)
	if len(ext.Trace) == 0 {
		t.Fatal("no trace on the extraction")
	}
	root := ext.Trace[0]
	if root.Name != "extract" || root.Parent != 0 || root.Open {
		t.Fatalf("root span wrong: %+v", root)
	}
	phases := map[string]bool{}
	for _, ev := range ext.Trace {
		if ev.Parent == root.ID {
			phases[ev.Name] = true
		}
		if ev.Open {
			t.Errorf("span %q still open on a completed extraction", ev.Name)
		}
	}
	for _, want := range []string{"from-clause", "minimizer", "join-graph", "filters", "projection", "assemble", "checker", "eqc-verify"} {
		if !phases[want] {
			t.Errorf("phase span %q missing (have %v)", want, phases)
		}
	}

	// Without a tracer the extraction carries no trace.
	db := warehouseDB(t, 25, 50, 160)
	plain, err := core.Extract(app.MustSQLExecutable("plain", concurrencyQueries[0]), db, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Errorf("untraced extraction carries %d spans", len(plain.Trace))
	}
}

// TestMetricsMatchStats: the metrics registry's counters agree with
// the extraction's Stats.
func TestMetricsMatchStats(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	cfg := defaultCfg()
	cfg.Metrics = obs.NewMetrics()
	ext, err := core.Extract(app.MustSQLExecutable("m", concurrencyQueries[0]), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Metrics
	if got := m.Counter("app_invocations").Value(); got != ext.Stats.AppInvocations {
		t.Errorf("app_invocations metric %d, stats %d", got, ext.Stats.AppInvocations)
	}
	if got := m.Counter("cache_hit").Value(); got != ext.Stats.CacheHits {
		t.Errorf("cache_hit metric %d, stats %d", got, ext.Stats.CacheHits)
	}
	if got := m.Histogram("probe_latency_ms").Count(); got != ext.Stats.AppInvocations {
		t.Errorf("latency histogram has %d observations, want one per invocation (%d)",
			got, ext.Stats.AppInvocations)
	}
}

// TestStatsCacheAccounting (satellite of the cache rewrite): with the
// run cache disabled the profile omits the cache section instead of
// printing zeros, and the hit-rate is well-defined with no traffic.
func TestStatsCacheAccounting(t *testing.T) {
	var zero core.Stats
	if rate := zero.CacheHitRate(); rate != 0 {
		t.Errorf("hit rate with no traffic = %v, want 0 (not NaN)", rate)
	}

	db := warehouseDB(t, 25, 50, 160)
	off := defaultCfg()
	off.DisableRunCache = true
	extOff, err := core.Extract(app.MustSQLExecutable("off", concurrencyQueries[0]), db, off)
	if err != nil {
		t.Fatal(err)
	}
	if extOff.Stats.CacheEnabled {
		t.Error("CacheEnabled true with DisableRunCache set")
	}
	if strings.Contains(extOff.Stats.String(), "cache") {
		t.Errorf("disabled cache still reported: %s", extOff.Stats.String())
	}

	extOn, err := core.Extract(app.MustSQLExecutable("on", concurrencyQueries[0]), db, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !extOn.Stats.CacheEnabled {
		t.Error("CacheEnabled false with the cache on")
	}
	if !strings.Contains(extOn.Stats.String(), "cache") {
		t.Errorf("enabled cache not reported: %s", extOn.Stats.String())
	}
}

// TestPhaseHistogramsAndEngineBridge (telemetry PR): every pipeline
// phase lands exactly one observation in its phase_ms.<name>
// histogram, the engine counter deltas are bridged into engine_*
// counters at session end, and the structured logger carries phase
// correlation attrs on its records.
func TestPhaseHistogramsAndEngineBridge(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	cfg := defaultCfg()
	cfg.Metrics = obs.NewMetrics()
	var logBuf bytes.Buffer
	cfg.Logger = obs.NewLogger(&logBuf, obs.LevelDebug)
	ext, err := core.Extract(app.MustSQLExecutable("ph", concurrencyQueries[0]), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{
		"from-clause", "minimizer", "join-graph", "filters", "disjunctions",
		"projection", "group-by", "aggregation", "order-by", "limit",
		"assemble", "checker", "eqc-verify",
	} {
		if got := cfg.Metrics.Histogram("phase_ms." + phase).Count(); got != 1 {
			t.Errorf("phase_ms.%s has %d observations, want 1", phase, got)
		}
	}
	m := cfg.Metrics
	if got := m.Counter("engine_join_builds_reused").Value(); got != ext.Stats.JoinBuildsReused {
		t.Errorf("engine_join_builds_reused metric %d, stats %d", got, ext.Stats.JoinBuildsReused)
	}
	if got := m.Counter("engine_vector_batches").Value(); got != ext.Stats.VectorBatches {
		t.Errorf("engine_vector_batches metric %d, stats %d", got, ext.Stats.VectorBatches)
	}
	if ext.Stats.ExecMode == "vector" && ext.Stats.VectorBatches == 0 {
		t.Error("vector engine reported zero batches — bridge has nothing to measure")
	}

	var phaseDone, complete int
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if strings.Contains(line, `"msg":"phase done"`) {
			phaseDone++
			if !strings.Contains(line, `"phase":`) {
				t.Errorf("phase record without phase attr: %s", line)
			}
		}
		if strings.Contains(line, `"msg":"extraction complete"`) {
			complete++
		}
	}
	if phaseDone != 13 || complete != 1 {
		t.Errorf("log records: %d phase-done (want 13), %d complete (want 1)\n%s",
			phaseDone, complete, logBuf.String())
	}
}

// TestPhaseInstrumentationNilSafe: an extraction with no metrics and
// no logger still succeeds (all record sites are nil-safe).
func TestPhaseInstrumentationNilSafe(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	if _, err := core.Extract(app.MustSQLExecutable("nil", concurrencyQueries[0]), db, defaultCfg()); err != nil {
		t.Fatal(err)
	}
}
