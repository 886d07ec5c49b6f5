package core_test

// checker_mutants_test.go — pins the mutant coverage of the extraction
// checker (Section 5.5). Every XData catalogue mutant of every TPC-H
// hidden query is planted as the application, with the hidden query
// itself standing in for Q_E; the checker must reject all of them
// except an explicit list of known survivors.

import (
	"context"
	"strings"
	"testing"

	"unmasque/internal/analysis/eqcequiv"
	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/registry"
	"unmasque/internal/workloads/tpch"
	"unmasque/internal/xdata"
)

// checkerSurvivors lists the mutants, keyed "<query>/<label>", that
// pass D_I, the randomized instances and the XData suite. The value
// records whether eqcequiv proves the mutant equivalent to the query
// at k=2: such a mutant computes the same answer on every small
// database, so no instance can kill it. The others are separable — a
// two-row-per-table database tells them apart — and survive only
// because xdata.Generate builds no instance that does.
var checkerSurvivors = map[string]bool{
	// Separable: the gap in xdata.Generate.
	"Q3/distinct#0":             false,
	"Q5/bound+#1":               false,
	"Q6/bound+#1":               false,
	"Q10/bound+#1":              false,
	"Q10/distinct#0":            false,
	"Q18/distinct#0":            false,
	"Q18/order-flip#1":          false,
	"Q21/group-extra:s_address": false,

	// Equivalent at k=2: the extra grouping column is functionally
	// determined by the grouping columns already there.
	"Q3/group-extra:c_custkey":     true,
	"Q10/group-extra:c_nationkey":  true,
	"Q10/group-extra:c_mktsegment": true,
	"Q18/group-extra:c_address":    true,
	"Q18/group-extra:c_nationkey":  true,
}

// TestCheckerMutantCoverage runs the checker once per catalogue mutant
// M of each TPC-H hidden query Q, with M as the application and Q as
// Q_E on the registry's D_I for Q. Every run must fail unless M is a
// listed survivor, and every listed survivor must still pass, so the
// list cannot go stale in either direction.
func TestCheckerMutantCoverage(t *testing.T) {
	schemas := tpch.Schemas()
	cfg := core.DefaultConfig()
	seen := map[string]bool{}
	var survived []string
	for _, q := range tpch.QueryOrder() {
		_, di, err := registry.Build("tpch/"+q, 1)
		if err != nil {
			t.Fatalf("%s: setup: %v", q, err)
		}
		stmt, err := sqlparser.Parse(tpch.HiddenQueries()[q])
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, m := range xdata.Mutants(stmt, schemas) {
			key := q + "/" + m.Label
			seen[key] = true
			exe, err := app.NewSQLExecutable(key, m.Stmt.String())
			if err != nil {
				t.Fatalf("%s: mutant does not parse: %v", key, err)
			}
			err = core.Check(context.Background(), exe, di, stmt, cfg)
			equivalent, listed := checkerSurvivors[key]
			switch {
			case err == nil && !listed:
				t.Errorf("%s: checker passes a mutant not on the survivor list", key)
			case err != nil && listed:
				t.Errorf("%s: listed survivor is now killed (%v); drop it from the list", key, err)
			case err != nil && !strings.Contains(err.Error(), "checker instance"):
				t.Errorf("%s: checker failed for a reason other than a differing instance: %v", key, err)
			}
			if err != nil {
				continue
			}
			survived = append(survived, key)
			if !listed {
				continue
			}
			v, err := eqcequiv.Check(stmt, m.Stmt, schemas, eqcequiv.Options{Bound: 2, MaxInstances: 50000})
			if err != nil {
				t.Fatalf("%s: eqcequiv: %v", key, err)
			}
			want := eqcequiv.Inequivalent
			if equivalent {
				want = eqcequiv.Equivalent
			}
			if v.Outcome != want {
				t.Errorf("%s: eqcequiv at k=2 says %v, want %v", key, v.Outcome, want)
			}
		}
	}
	for key := range checkerSurvivors {
		if !seen[key] {
			t.Errorf("%s: listed survivor is no longer in the mutant catalogue", key)
		}
	}
	t.Logf("%d of %d catalogue mutants survive the checker: %s",
		len(survived), len(seen), strings.Join(survived, ", "))
}
