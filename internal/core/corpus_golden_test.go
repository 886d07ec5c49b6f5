package core_test

// corpus_golden_test.go — pins what the extractor recovers for every
// registered application: the SQL (or the error text) and the number
// of application invocations, at seed 1. The vector engine is checked
// against the committed golden file; the tree engine, the oracle, is
// checked against the vector result. Regenerate with
// `go test ./internal/core -run TestCorpusGolden -update`.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/workloads/registry"
)

// corpusOutcome renders one extraction as its golden-file block: a
// header line with the app name and invocation count, then the SQL or
// the error text.
func corpusOutcome(t *testing.T, name, mode string) string {
	t.Helper()
	exe, db, err := registry.Build(name, 1)
	if err != nil {
		t.Fatalf("%s: setup: %v", name, err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.ExecMode = mode
	cfg.ExtractHaving = strings.HasPrefix(name, "tpch/H")
	// See extractUnderMode: a deadline load cannot reach, so no
	// from-clause probe is retried.
	cfg.ProbeTimeout = cfg.ExecTimeout
	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		return fmt.Sprintf("=== %s\nerror: %v\n", name, err)
	}
	return fmt.Sprintf("=== %s invocations=%d\n%s\n", name, ext.Stats.AppInvocations, ext.SQL)
}

// TestCorpusGolden extracts every registered application under both
// engines and compares the outcomes with testdata/corpus_golden.txt.
func TestCorpusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is not short")
	}
	var got strings.Builder
	for _, name := range registry.Names() {
		vector := corpusOutcome(t, name, "vector")
		if tree := corpusOutcome(t, name, "tree"); tree != vector {
			t.Errorf("engines diverge on %s\nvector:\n%stree:\n%s", name, vector, tree)
		}
		got.WriteString(vector)
	}

	golden := filepath.Join("testdata", "corpus_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("corpus extraction deviates from golden file (run with -update if the pipeline changed):\n%s",
			firstDiff([]byte(got.String()), want))
	}
}
