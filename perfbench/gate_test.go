package main

import (
	"context"
	"strings"
	"testing"

	"unmasque/internal/app"
	"unmasque/internal/sqldb"
	"unmasque/internal/workloads/registry"
	"unmasque/internal/workloads/tpch"
)

func TestGateAcceptsTheHiddenQueryAndRejectsOthers(t *testing.T) {
	ctx := context.Background()
	exe, db, err := registry.Build("tpch/Q3", 1)
	if err != nil {
		t.Fatal(err)
	}
	hidden := tpch.HiddenQueries()["Q3"]
	if err := verify(ctx, exe, db, hidden); err != nil {
		t.Fatalf("hidden query rejected: %v", err)
	}
	wrongFilter := strings.Replace(hidden, "'BUILDING'", "'MACHINERY'", 1)
	if err := verify(ctx, exe, db, wrongFilter); err == nil {
		t.Error("query with another filter constant accepted")
	}
	wrongOrder := strings.Replace(hidden, "revenue desc", "revenue asc", 1)
	if wrongOrder == hidden {
		t.Fatal("test query has no 'revenue desc' to flip")
	}
	if err := verify(ctx, exe, db, wrongOrder); err == nil {
		t.Error("query with the opposite ORDER BY accepted")
	}
	if err := verify(ctx, exe, db, "select nonsense"); err == nil {
		t.Error("unparsable SQL accepted")
	}
}

func TestGateMemoizesVerdictsPerInstanceAndText(t *testing.T) {
	ctx := context.Background()
	g := gate{}
	loads := 0
	load := func() (app.Executable, *sqldb.Database, error) {
		loads++
		return registry.Build("tpch/Q6", 1)
	}
	in := instance{"tpch/Q6", 1}
	hidden := tpch.HiddenQueries()["Q6"]
	for i := 0; i < 2; i++ {
		if err := g.check(ctx, in, hidden, load); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	if loads != 1 {
		t.Errorf("instance loaded %d times, want 1", loads)
	}
	if err := g.check(ctx, in, "select nonsense", load); err == nil || loads != 2 {
		t.Errorf("new text: err %v after %d loads, want an error after 2", err, loads)
	}
}
