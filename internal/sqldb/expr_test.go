package sqldb

import (
	"context"
	"math/rand"
	"testing"
)

func TestExprStringPrecedence(t *testing.T) {
	a, b, c := Col("t", "a"), Col("t", "b"), Col("t", "c")
	cases := []struct {
		e    Expr
		want string
	}{
		// Multiplication over addition needs parentheses on the
		// addition side.
		{Bin(OpMul, Bin(OpAdd, a, b), c), "(t.a + t.b) * t.c"},
		{Bin(OpAdd, Bin(OpMul, a, b), c), "t.a * t.b + t.c"},
		// The revenue form.
		{Bin(OpMul, a, Bin(OpSub, Lit(NewInt(1)), b)), "t.a * (1 - t.b)"},
		// Comparisons bind looser than arithmetic.
		{Bin(OpGe, Bin(OpAdd, a, b), Lit(NewInt(3))), "t.a + t.b >= 3"},
		// AND binds looser than comparison.
		{Bin(OpAnd, Bin(OpEq, a, b), Bin(OpLt, b, c)), "t.a = t.b and t.b < t.c"},
		// OR under AND is parenthesized.
		{Bin(OpAnd, Bin(OpOr, Bin(OpEq, a, b), Bin(OpEq, b, c)), Bin(OpEq, a, c)),
			"(t.a = t.b or t.b = t.c) and t.a = t.c"},
	}
	for _, cse := range cases {
		if got := cse.e.String(); got != cse.want {
			t.Errorf("got %q, want %q", got, cse.want)
		}
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	a := Bin(OpEq, Col("t", "a"), Lit(NewInt(1)))
	b := Bin(OpEq, Col("t", "b"), Lit(NewInt(2)))
	c := Bin(OpEq, Col("t", "c"), Lit(NewInt(3)))
	combined := AndAll([]Expr{a, b, c})
	parts := Conjuncts(combined)
	if len(parts) != 3 {
		t.Fatalf("conjunct count %d", len(parts))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if AndAll([]Expr{a}) != Expr(a) {
		t.Error("AndAll singleton should be identity")
	}
	if len(Conjuncts(nil)) != 0 {
		t.Error("Conjuncts(nil) should be empty")
	}
	// OR is not split.
	or := Bin(OpOr, a, b)
	if len(Conjuncts(or)) != 1 {
		t.Error("Conjuncts must not split OR")
	}
}

func TestHasAggregateWalks(t *testing.T) {
	agg := &AggExpr{Fn: AggSum, Arg: Col("t", "a")}
	cases := []struct {
		e    Expr
		want bool
	}{
		{agg, true},
		{Bin(OpAdd, Col("t", "a"), agg), true},
		{&BetweenExpr{X: agg, Lo: Lit(NewInt(1)), Hi: Lit(NewInt(2))}, true},
		{&NotExpr{X: Bin(OpGe, agg, Lit(NewInt(1)))}, true},
		{Col("t", "a"), false},
		{Bin(OpMul, Col("t", "a"), Col("t", "b")), false},
		{&LikeExpr{X: Col("t", "s"), Pattern: "%x%"}, false},
	}
	for _, c := range cases {
		if got := HasAggregate(c.e); got != c.want {
			t.Errorf("HasAggregate(%s) = %v", c.e, got)
		}
	}
}

func TestColumnsOfCollectsAll(t *testing.T) {
	e := Bin(OpAnd,
		Bin(OpEq, Col("t", "a"), Col("u", "b")),
		&BetweenExpr{X: Col("t", "c"), Lo: Lit(NewInt(1)), Hi: Col("u", "d")})
	cols := ColumnsOf(e)
	if len(cols) != 4 {
		t.Fatalf("collected %d columns", len(cols))
	}
	seen := map[string]bool{}
	for _, c := range cols {
		seen[c.String()] = true
	}
	for _, want := range []string{"t.a", "u.b", "t.c", "u.d"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestSelectItemOutputName(t *testing.T) {
	cases := []struct {
		item SelectItem
		want string
	}{
		{SelectItem{Expr: Col("t", "a")}, "a"},
		{SelectItem{Expr: Col("t", "a"), Alias: "x"}, "x"},
		{SelectItem{Expr: &AggExpr{Fn: AggSum, Arg: Col("t", "a")}}, "sum"},
		{SelectItem{Expr: Bin(OpAdd, Col("t", "a"), Lit(NewInt(1)))}, "?column?"},
	}
	for _, c := range cases {
		if got := c.item.OutputName(); got != c.want {
			t.Errorf("OutputName(%s) = %q, want %q", c.item, got, c.want)
		}
	}
}

func TestSelectStmtString(t *testing.T) {
	stmt := &SelectStmt{
		Items:   []SelectItem{{Expr: Col("t", "a")}, {Expr: &AggExpr{Fn: AggCount, Star: true}, Alias: "n"}},
		From:    []string{"t"},
		Where:   Bin(OpGe, Col("t", "a"), Lit(NewInt(3))),
		GroupBy: []Expr{Col("t", "a")},
		Having:  Bin(OpGe, &AggExpr{Fn: AggCount, Star: true}, Lit(NewInt(2))),
		OrderBy: []OrderKey{{Expr: &ColumnExpr{Column: "n"}, Desc: true}},
		Limit:   7,
	}
	want := "select t.a, count(*) as n\nfrom t\nwhere t.a >= 3\ngroup by t.a\nhaving count(*) >= 2\norder by n desc\nlimit 7;"
	if got := stmt.String(); got != want {
		t.Errorf("String:\n%s\nwant:\n%s", got, want)
	}
}

func TestAggExprString(t *testing.T) {
	if got := (&AggExpr{Fn: AggCount, Star: true}).String(); got != "count(*)" {
		t.Errorf("count(*): %q", got)
	}
	if got := (&AggExpr{Fn: AggCount, Arg: Col("t", "a"), Distinct: true}).String(); got != "count(distinct t.a)" {
		t.Errorf("distinct: %q", got)
	}
}

// TestExecutionSurvivesCloneStmt is the regression test for the
// pointer-identity resolution bug: an execution compiled from one
// statement must evaluate a structurally equal clone (all-new
// expression pointers) identically under both engines. Keying
// resolution maps on *ColumnExpr identity broke this.
func TestExecutionSurvivesCloneStmt(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	db := NewDatabase()
	if err := db.CreateTable(TableSchema{Name: "p", Columns: []Column{
		{Name: "k", Type: TInt}, {Name: "w", Type: TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := db.Insert("p", NewInt(rng.Int63n(6)), NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	stmt := &SelectStmt{
		Items: []SelectItem{
			{Expr: Col("p", "k")},
			{Expr: &AggExpr{Fn: AggSum, Arg: Col("p", "w")}, Alias: "tot"},
		},
		From:    []string{"p"},
		Where:   Bin(OpGe, Col("p", "w"), Lit(NewInt(3))),
		GroupBy: []Expr{Col("p", "k")},
		Having:  Bin(OpGt, &AggExpr{Fn: AggCount, Arg: Col("p", "w")}, Lit(NewInt(1))),
		OrderBy: []OrderKey{{Expr: Col("p", "k")}},
	}
	ctx := context.Background()
	want, err := db.Execute(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{ExecTree, ExecVector} {
		ex, err := newExecution(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		// Swap in a deep clone: every expression node is a fresh
		// pointer, so any pointer-keyed resolution state is useless
		// and name-based resolution must carry the run.
		ex.stmt = CloneStmt(stmt)
		var got *Result
		var ticks int
		if mode == ExecTree {
			got, err = ex.runTree(ctx, &ticks)
		} else {
			got, err = ex.runVector(ctx, &ticks)
		}
		if err != nil {
			t.Fatalf("%s: execution over cloned statement failed: %v", mode, err)
		}
		if got.Digest() != want.Digest() {
			t.Fatalf("%s: cloned-statement digest %s != original %s", mode, got.Digest().Hex(), want.Digest().Hex())
		}
	}
}
