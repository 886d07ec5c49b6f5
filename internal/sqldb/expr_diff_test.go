package sqldb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file differentially tests the engine's scalar expression
// evaluator (execution.eval) against oval/oeval, an independent
// straightforward tree-walking oracle, on randomly generated
// well-typed expressions over randomly generated rows (NULLs
// included). The oracle re-implements SQL's three-valued logic and
// arithmetic from scratch over nullable float64/bool/string — it
// shares no code with the engine's Value arithmetic — but it does
// mirror the engine's evaluation ORDER, because observable behavior
// includes errors: `false and 1/0 < 2` must short-circuit past the
// division in both implementations.
//
// Generated leaves are kept small (|int| <= 9, depth <= 3) so every
// intermediate value stays exactly representable in float64 and the
// engine's int64 fast path cannot diverge from the oracle's floats.

// oval is the oracle's value: a nullable scalar tagged numeric,
// boolean or text.
type oval struct {
	null bool
	kind byte // 'n', 'b', 't'
	f    float64
	b    bool
	s    string
}

func onum(f float64) oval { return oval{kind: 'n', f: f} }
func obool(b bool) oval   { return oval{kind: 'b', b: b} }
func otext(s string) oval { return oval{kind: 't', s: s} }
func onull(k byte) oval   { return oval{null: true, kind: k} }
func errDiv() error       { return fmt.Errorf("oracle: division by zero") }

// oeval walks an expression tree the naive way. cols maps column
// names to row slots.
func oeval(e Expr, row Row, cols map[string]int) (oval, error) {
	switch x := e.(type) {
	case *ColumnExpr:
		v := row[cols[x.Column]]
		switch {
		case v.Null:
			k := byte('n')
			if v.Typ == TText {
				k = 't'
			} else if v.Typ == TBool {
				k = 'b'
			}
			return onull(k), nil
		case v.Typ == TText:
			return otext(v.S), nil
		case v.Typ == TBool:
			return obool(v.I != 0), nil
		default:
			return onum(v.AsFloat()), nil
		}
	case *LiteralExpr:
		v := x.Val
		switch {
		case v.Null:
			return onull('n'), nil
		case v.Typ == TText:
			return otext(v.S), nil
		case v.Typ == TBool:
			return obool(v.I != 0), nil
		default:
			return onum(v.AsFloat()), nil
		}
	case *NegExpr:
		v, err := oeval(x.X, row, cols)
		if err != nil {
			return oval{}, err
		}
		if v.null {
			return v, nil
		}
		return onum(-v.f), nil
	case *BinaryExpr:
		if x.Op == OpAnd || x.Op == OpOr {
			return oevalLogic(x, row, cols)
		}
		l, err := oeval(x.L, row, cols)
		if err != nil {
			return oval{}, err
		}
		r, err := oeval(x.R, row, cols)
		if err != nil {
			return oval{}, err
		}
		switch x.Op {
		case OpAdd, OpSub, OpMul, OpDiv:
			if l.null || r.null {
				return onull('n'), nil
			}
			switch x.Op {
			case OpAdd:
				return onum(l.f + r.f), nil
			case OpSub:
				return onum(l.f - r.f), nil
			case OpMul:
				return onum(l.f * r.f), nil
			default:
				if r.f == 0 {
					return oval{}, errDiv()
				}
				return onum(l.f / r.f), nil
			}
		default: // comparison
			if l.null || r.null {
				return onull('b'), nil
			}
			var c int
			if l.kind == 't' {
				switch {
				case l.s < r.s:
					c = -1
				case l.s > r.s:
					c = 1
				}
			} else {
				switch {
				case l.f < r.f:
					c = -1
				case l.f > r.f:
					c = 1
				}
			}
			switch x.Op {
			case OpEq:
				return obool(c == 0), nil
			case OpNe:
				return obool(c != 0), nil
			case OpLt:
				return obool(c < 0), nil
			case OpLe:
				return obool(c <= 0), nil
			case OpGt:
				return obool(c > 0), nil
			default:
				return obool(c >= 0), nil
			}
		}
	case *NotExpr:
		v, err := oeval(x.X, row, cols)
		if err != nil {
			return oval{}, err
		}
		if v.null {
			return onull('b'), nil
		}
		return obool(!v.b), nil
	case *BetweenExpr:
		v, err := oeval(x.X, row, cols)
		if err != nil {
			return oval{}, err
		}
		lo, err := oeval(x.Lo, row, cols)
		if err != nil {
			return oval{}, err
		}
		hi, err := oeval(x.Hi, row, cols)
		if err != nil {
			return oval{}, err
		}
		if v.null || lo.null || hi.null {
			return onull('b'), nil
		}
		return obool(v.f >= lo.f && v.f <= hi.f), nil
	case *LikeExpr:
		v, err := oeval(x.X, row, cols)
		if err != nil {
			return oval{}, err
		}
		if v.null {
			return onull('b'), nil
		}
		m, err := likeOracle(x.Pattern, v.s)
		if err != nil {
			return oval{}, err
		}
		if x.Not {
			m = !m
		}
		return obool(m), nil
	case *IsNullExpr:
		v, err := oeval(x.X, row, cols)
		if err != nil {
			return oval{}, err
		}
		b := v.null
		if x.Not {
			b = !b
		}
		return obool(b), nil
	default:
		return oval{}, fmt.Errorf("oracle: unsupported node %T", e)
	}
}

// oevalLogic mirrors the engine's short-circuit order: the right
// operand is not evaluated (so cannot error) when the left decides.
func oevalLogic(x *BinaryExpr, row Row, cols map[string]int) (oval, error) {
	l, err := oeval(x.L, row, cols)
	if err != nil {
		return oval{}, err
	}
	if !l.null {
		if x.Op == OpAnd && !l.b {
			return obool(false), nil
		}
		if x.Op == OpOr && l.b {
			return obool(true), nil
		}
	}
	r, err := oeval(x.R, row, cols)
	if err != nil {
		return oval{}, err
	}
	if x.Op == OpAnd {
		if !r.null && !r.b {
			return obool(false), nil
		}
		if l.null || r.null {
			return onull('b'), nil
		}
		return obool(true), nil
	}
	if !r.null && r.b {
		return obool(true), nil
	}
	if l.null || r.null {
		return onull('b'), nil
	}
	return obool(false), nil
}

// ---------------------------------------------------------------------
// Random generation

var diffSchema = TableSchema{
	Name: "t",
	Columns: []Column{
		{Name: "a", Type: TInt},
		{Name: "b", Type: TInt},
		{Name: "c", Type: TFloat, Precision: 2},
		{Name: "d", Type: TFloat, Precision: 2},
		{Name: "s", Type: TText, MaxLen: 8},
		{Name: "u", Type: TText, MaxLen: 8},
	},
}

var diffWords = []string{"", "a", "ab", "abc", "xya", "zb", "a_b", "%x"}

// genNum/genText/genBool generate well-typed expressions; depth bounds
// the tree so intermediate products stay exact in float64.
func genNum(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return Lit(NewInt(int64(rng.Intn(19) - 9)))
		case 1:
			return Lit(NewFloat(float64(rng.Intn(37)-18) * 0.5))
		case 2:
			return &ColumnExpr{Column: []string{"a", "b"}[rng.Intn(2)]}
		default:
			return &ColumnExpr{Column: []string{"c", "d"}[rng.Intn(2)]}
		}
	}
	if rng.Intn(8) == 0 {
		return &NegExpr{X: genNum(rng, depth-1)}
	}
	ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv}
	return Bin(ops[rng.Intn(len(ops))], genNum(rng, depth-1), genNum(rng, depth-1))
}

func genText(rng *rand.Rand) Expr {
	if rng.Intn(2) == 0 {
		return Lit(NewText(diffWords[rng.Intn(len(diffWords))]))
	}
	return &ColumnExpr{Column: []string{"s", "u"}[rng.Intn(2)]}
}

func genBool(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0: // numeric comparison
			cmps := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
			return Bin(cmps[rng.Intn(len(cmps))], genNum(rng, 1), genNum(rng, 1))
		case 1: // text comparison
			cmps := []BinOp{OpEq, OpNe, OpLt, OpGt}
			return Bin(cmps[rng.Intn(len(cmps))], genText(rng), genText(rng))
		case 2:
			pats := []string{"%", "a%", "%b", "_", "a_%", "%a%b%", "", "x"}
			return &LikeExpr{X: genText(rng), Pattern: pats[rng.Intn(len(pats))], Not: rng.Intn(2) == 0}
		case 3:
			if rng.Intn(2) == 0 {
				return &IsNullExpr{X: genNum(rng, 1), Not: rng.Intn(2) == 0}
			}
			return &IsNullExpr{X: genText(rng), Not: rng.Intn(2) == 0}
		default:
			return &BetweenExpr{X: genNum(rng, 1), Lo: genNum(rng, 0), Hi: genNum(rng, 0)}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &NotExpr{X: genBool(rng, depth-1)}
	case 1:
		return Bin(OpAnd, genBool(rng, depth-1), genBool(rng, depth-1))
	default:
		return Bin(OpOr, genBool(rng, depth-1), genBool(rng, depth-1))
	}
}

// genRow draws one row for diffSchema; every column is NULL with
// probability ~1/7.
func genRow(rng *rand.Rand) Row {
	row := make(Row, len(diffSchema.Columns))
	for i, col := range diffSchema.Columns {
		if rng.Intn(7) == 0 {
			row[i] = NewNull(col.Type)
			continue
		}
		switch col.Type {
		case TInt:
			row[i] = NewInt(int64(rng.Intn(19) - 9))
		case TFloat:
			row[i] = NewFloat(float64(rng.Intn(37)-18) * 0.5)
		default:
			row[i] = NewText(diffWords[rng.Intn(len(diffWords))])
		}
	}
	return row
}

// diffTrial generates one expression and checks engine vs oracle on
// several rows. It reports the number of checked evaluations.
func diffTrial(t *testing.T, rng *rand.Rand) int {
	t.Helper()
	db := NewDatabase()
	if err := db.CreateTable(diffSchema); err != nil {
		t.Fatal(err)
	}
	cols := map[string]int{}
	for i, c := range diffSchema.Columns {
		cols[c.Name] = i
	}

	var e Expr
	if rng.Intn(2) == 0 {
		e = genBool(rng, 3)
	} else {
		e = genNum(rng, 3)
	}
	stmt := &SelectStmt{
		Items: []SelectItem{{Expr: e, Alias: "o"}},
		From:  []string{"t"},
	}
	ex, err := newExecution(db, stmt)
	if err != nil {
		t.Fatalf("resolution of generated %s: %v", e, err)
	}

	checked := 0
	for r := 0; r < 16; r++ {
		row := genRow(rng)
		got, gerr := ex.eval(e, row, nil)
		want, werr := oeval(e, row, cols)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("error divergence on %s\nrow: %v\nengine: %v %v\noracle: %+v %v", e, row, got, gerr, want, werr)
		}
		if gerr != nil {
			checked++
			continue
		}
		if got.Null != want.null {
			t.Fatalf("null divergence on %s\nrow: %v\nengine: %v\noracle: %+v", e, row, got, want)
		}
		if !got.Null {
			switch want.kind {
			case 'b':
				if got.Bool() != want.b {
					t.Fatalf("bool divergence on %s\nrow: %v\nengine: %v\noracle: %+v", e, row, got, want)
				}
			case 't':
				if got.S != want.s {
					t.Fatalf("text divergence on %s\nrow: %v\nengine: %v\noracle: %+v", e, row, got, want)
				}
			default:
				gf := got.AsFloat()
				if math.Abs(gf-want.f) > 1e-9*math.Max(1, math.Abs(want.f)) {
					t.Fatalf("numeric divergence on %s\nrow: %v\nengine: %v\noracle: %+v", e, row, got, want)
				}
			}
		}
		checked++
	}
	return checked
}

// vecTrial generates one boolean WHERE expression, plants it in a
// single-table statement over generated rows, and executes it under
// both exec modes: the vectorized evaluator must agree with the tree
// walker on digests and on error presence. This is the third corner
// of the differential triangle (tree vs oracle vs vector).
func vecTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	db := NewDatabase()
	if err := db.CreateTable(diffSchema); err != nil {
		t.Fatal(err)
	}
	tbl := db.tables["t"]
	for r := 0; r < 24; r++ {
		tbl.Rows = append(tbl.Rows, genRow(rng))
	}
	tbl.invalidateBuilds()

	e := genBool(rng, 3)
	stmt := &SelectStmt{
		Items: []SelectItem{{Expr: &ColumnExpr{Column: "a"}}, {Expr: &ColumnExpr{Column: "s"}}},
		From:  []string{"t"},
		Where: e,
	}
	ctx := context.Background()
	db.SetExecMode(ExecTree)
	rt, errT := db.Execute(ctx, stmt)
	db.SetExecMode(ExecVector)
	rv, errV := db.Execute(ctx, stmt)
	if (errT != nil) != (errV != nil) {
		t.Fatalf("error presence divergence on where %s\ntree: %v\nvector: %v", e, errT, errV)
	}
	if errT != nil {
		return
	}
	if rt.Digest() != rv.Digest() {
		t.Fatalf("engine divergence on where %s\ntree:\n%s\nvector:\n%s", e, rt, rv)
	}
}

// TestExprEvalDifferential is the deterministic property-test entry:
// many generated expressions, fixed seed.
func TestExprEvalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	total := 0
	for trial := 0; trial < 400; trial++ {
		total += diffTrial(t, rng)
	}
	if total < 400*16 {
		t.Fatalf("checked only %d evaluations", total)
	}
}

// TestVecEvalDifferential is the deterministic vectorized
// counterpart: generated WHERE clauses through both engines.
func TestVecEvalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 400; trial++ {
		vecTrial(t, rng)
	}
}

// FuzzExprEval lets the fuzzer drive the generator seed, exploring
// expression shapes the fixed-seed test never reaches.
//
// Run continuously with:
//
//	go test -fuzz=FuzzExprEval ./internal/sqldb
func FuzzExprEval(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 424242, -1} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 8; trial++ {
			diffTrial(t, rng)
			vecTrial(t, rng)
		}
	})
}
