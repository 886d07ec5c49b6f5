package core_test

// execmode_test.go — pins end-to-end extraction equivalence across
// execution engines: running the full pipeline with the vectorized
// engine and with the tree-walking oracle must recover byte-identical
// SQL, issue the same number of application invocations, and leave
// the same stripped probe ledger. The engines may differ only in
// speed and in the engine counters they report.

import (
	"bytes"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/workloads/registry"
)

// extractUnderMode runs one registered application through the full
// pipeline under the given exec mode and returns the extraction and
// its stripped trace (run header, span tree, probe ledger).
func extractUnderMode(t *testing.T, appName, mode string) (*core.Extraction, []byte) {
	t.Helper()
	exe, db, err := registry.Build(appName, 1)
	if err != nil {
		t.Fatalf("%s: setup: %v", appName, err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.ExecMode = mode
	// A from-clause probe that crosses ProbeTimeout re-runs with a
	// doubled deadline, adding an invocation that depends on machine
	// load rather than on the engine. Starting at ExecTimeout gives
	// both engines a deadline that load cannot reach.
	cfg.ProbeTimeout = cfg.ExecTimeout
	cfg.Tracer = obs.NewTracer("extract")
	cfg.Ledger = obs.NewLedger()
	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		t.Fatalf("%s under %q: %v", appName, mode, err)
	}
	var buf bytes.Buffer
	header := obs.RunHeader{App: exe.Name(), Workers: ext.Stats.Workers, Seed: cfg.Seed}
	if err := obs.WriteTrace(&buf, header, ext.Trace, cfg.Ledger); err != nil {
		t.Fatal(err)
	}
	stripped, err := obs.StripVolatile(buf.Bytes())
	if err != nil {
		t.Fatalf("%s under %q: trace does not strip: %v", appName, mode, err)
	}
	return ext, stripped
}

// TestExtractionIdenticalAcrossExecModes runs three TPC-H
// applications under both engines and asserts the extraction is
// observably identical: same SQL, same invocation count, same
// stripped probe ledger.
func TestExtractionIdenticalAcrossExecModes(t *testing.T) {
	for _, appName := range []string{"tpch/Q3", "tpch/Q6", "tpch/Q10"} {
		t.Run(appName, func(t *testing.T) {
			extV, traceV := extractUnderMode(t, appName, "vector")
			extT, traceT := extractUnderMode(t, appName, "tree")

			if extV.SQL != extT.SQL {
				t.Fatalf("extracted SQL diverges\nvector:\n%s\ntree:\n%s", extV.SQL, extT.SQL)
			}
			if extV.Stats.AppInvocations != extT.Stats.AppInvocations {
				t.Fatalf("app invocations diverge: vector=%d tree=%d",
					extV.Stats.AppInvocations, extT.Stats.AppInvocations)
			}
			if !bytes.Equal(traceV, traceT) {
				t.Fatalf("stripped probe traces diverge (%d vs %d bytes)", len(traceV), len(traceT))
			}

			if extV.Stats.ExecMode != "vector" || extT.Stats.ExecMode != "tree" {
				t.Fatalf("stats report modes %q/%q, want vector/tree",
					extV.Stats.ExecMode, extT.Stats.ExecMode)
			}
			// The oracle never touches the vectorized machinery.
			if extT.Stats.JoinBuildsReused != 0 || extT.Stats.VectorBatches != 0 {
				t.Fatalf("tree mode reports vector work: %+v", extT.Stats)
			}
			// The vector engine actually vectorizes on these queries.
			if extV.Stats.VectorBatches == 0 {
				t.Fatal("vector mode reports zero batches")
			}
		})
	}
}

// TestConfigRejectsUnknownExecMode pins the validation surface.
func TestConfigRejectsUnknownExecMode(t *testing.T) {
	exe, db, err := registry.Build("tpch/Q6", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ExecMode = "columnar-ish"
	if _, err := core.Extract(exe, db, cfg); err == nil {
		t.Fatal("extraction accepted an unknown exec mode")
	}
}
