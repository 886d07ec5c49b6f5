package core_test

import (
	"context"
	"strings"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/workloads/registry"
)

// TestExtractLeavesInstanceUnchanged: the silo shares D_I's rows
// until the minimizer has shrunk it to D_1, so no phase may write
// through to the caller's instance. Every registered application is
// extracted at 1 and 4 workers (with the having pipeline for the
// tpch/H* queries), and D_I's fingerprint must not move — whether or
// not the extraction itself succeeds.
func TestExtractLeavesInstanceUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is not short")
	}
	for _, name := range registry.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			exe, db, err := registry.Build(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := db.Fingerprint()
			for _, workers := range []int{1, 4} {
				cfg := core.DefaultConfig()
				cfg.Workers = workers
				cfg.ExtractHaving = strings.HasPrefix(name, "tpch/H")
				if _, err := core.ExtractContext(context.Background(), exe, db, cfg); err != nil {
					t.Logf("workers=%d: extraction failed: %v", workers, err)
				}
				if db.Fingerprint() != before {
					t.Fatalf("workers=%d: extraction modified the provided instance", workers)
				}
			}
		})
	}
}
