package xdata

import (
	"fmt"
	"strings"

	"unmasque/internal/sqldb"
)

// Mutant is one systematically mutated variant of a candidate query —
// the classic XData mutant classes expressed as ASTs instead of as
// test databases: off-by-one filter bounds, wrong LIKE patterns and
// text equalities, wrong aggregate functions, distinct toggles,
// missing/extra grouping columns, flipped sort directions and
// off-by-one limits. The bounded equivalence checker disproves a
// mutant by finding a small database on which it differs from the
// candidate; that database then doubles as the killing witness.
type Mutant struct {
	Label string
	Stmt  *sqldb.SelectStmt
}

// mutantLimitCap bounds the limit values for which off-by-one limit
// mutants are generated: a limit beyond the row count any size-k
// database can produce is indistinguishable from limit±1 inside the
// bound, so such mutants would only dilute the catalogue (the
// classical order-limit instance keeps covering them).
const mutantLimitCap = 4

// Mutants derives the mutant catalogue of a candidate query. The
// catalogue is deterministic: same AST in, same mutants (order
// included) out. Schemas drive the extra-group-column class; every
// other class is purely syntactic.
func Mutants(stmt *sqldb.SelectStmt, schemas []sqldb.TableSchema) []Mutant {
	var out []Mutant
	add := func(label string, m *sqldb.SelectStmt) {
		out = append(out, Mutant{Label: label, Stmt: m})
	}

	out = append(out, boundMutants(stmt)...)
	out = append(out, likeMutants(stmt)...)
	out = append(out, textEqMutants(stmt)...)
	out = append(out, aggMutants(stmt)...)
	out = append(out, distinctMutants(stmt)...)
	out = append(out, groupMutants(stmt, schemas)...)

	for i := range stmt.OrderBy {
		m := sqldb.CloneStmt(stmt)
		m.OrderBy[i].Desc = !m.OrderBy[i].Desc
		add(fmt.Sprintf("order-flip#%d", i), m)
	}
	if stmt.Limit >= 1 && stmt.Limit <= mutantLimitCap {
		lo := sqldb.CloneStmt(stmt)
		lo.Limit = stmt.Limit - 1
		add(fmt.Sprintf("limit:%d", lo.Limit), lo)
		hi := sqldb.CloneStmt(stmt)
		hi.Limit = stmt.Limit + 1
		add(fmt.Sprintf("limit:%d", hi.Limit), hi)
	}
	return out
}

// forEachPredicate visits the where and having trees of a statement.
func forEachPredicate(m *sqldb.SelectStmt, fn func(e sqldb.Expr)) {
	if m.Where != nil {
		fn(m.Where)
	}
	if m.Having != nil {
		fn(m.Having)
	}
}

// boundSites visits every mutable numeric/date literal bound of the
// predicate trees in deterministic (syntactic) order.
func boundSites(m *sqldb.SelectStmt, fn func(lit *sqldb.LiteralExpr)) {
	var walk func(e sqldb.Expr)
	visit := func(l *sqldb.LiteralExpr) {
		switch l.Val.Typ {
		case sqldb.TInt, sqldb.TFloat, sqldb.TDate:
			fn(l)
		}
	}
	walk = func(e sqldb.Expr) {
		switch x := e.(type) {
		case *sqldb.BinaryExpr:
			if x.Op == sqldb.OpAnd || x.Op == sqldb.OpOr {
				walk(x.L)
				walk(x.R)
				return
			}
			if x.Op.IsComparison() {
				if l, ok := x.R.(*sqldb.LiteralExpr); ok {
					visit(l)
				}
				if l, ok := x.L.(*sqldb.LiteralExpr); ok {
					visit(l)
				}
			}
		case *sqldb.BetweenExpr:
			if l, ok := x.Lo.(*sqldb.LiteralExpr); ok {
				visit(l)
			}
			if l, ok := x.Hi.(*sqldb.LiteralExpr); ok {
				visit(l)
			}
		case *sqldb.NotExpr:
			walk(x.X)
		}
	}
	forEachPredicate(m, walk)
}

// boundDelta is the off-by-one step for a literal: one for integral
// types, one unit of the engine's default fixed precision for floats.
func boundDelta(v sqldb.Value) sqldb.Value {
	if v.Typ == sqldb.TFloat {
		return sqldb.NewFloat(0.01)
	}
	return sqldb.NewInt(1)
}

func boundMutants(stmt *sqldb.SelectStmt) []Mutant {
	var probe []sqldb.Value
	boundSites(stmt, func(l *sqldb.LiteralExpr) { probe = append(probe, l.Val) })
	var out []Mutant
	for i := range probe {
		for _, dir := range []int{+1, -1} {
			m := sqldb.CloneStmt(stmt)
			idx := 0
			boundSites(m, func(l *sqldb.LiteralExpr) {
				if idx == i {
					d := boundDelta(l.Val)
					var nv sqldb.Value
					var err error
					if dir > 0 {
						nv, err = sqldb.Add(l.Val, d)
					} else {
						nv, err = sqldb.Sub(l.Val, d)
					}
					if err == nil {
						l.Val = nv
					}
				}
				idx++
			})
			sign := "+"
			if dir < 0 {
				sign = "-"
			}
			out = append(out, Mutant{Label: fmt.Sprintf("bound%s#%d", sign, i), Stmt: m})
		}
	}
	return out
}

func likeMutants(stmt *sqldb.SelectStmt) []Mutant {
	countSites := func(m *sqldb.SelectStmt, fn func(l *sqldb.LikeExpr)) {
		var walk func(e sqldb.Expr)
		walk = func(e sqldb.Expr) {
			switch x := e.(type) {
			case *sqldb.BinaryExpr:
				walk(x.L)
				walk(x.R)
			case *sqldb.NotExpr:
				walk(x.X)
			case *sqldb.LikeExpr:
				fn(x)
			}
		}
		forEachPredicate(m, walk)
	}
	n := 0
	countSites(stmt, func(*sqldb.LikeExpr) { n++ })
	var out []Mutant
	for i := 0; i < n; i++ {
		m := sqldb.CloneStmt(stmt)
		idx := 0
		countSites(m, func(l *sqldb.LikeExpr) {
			if idx == i {
				l.Pattern = mutateText(l.Pattern)
			}
			idx++
		})
		out = append(out, Mutant{Label: fmt.Sprintf("like#%d", i), Stmt: m})
	}
	return out
}

// mutateText flips the first non-wildcard character of a pattern or
// literal, always producing a different string.
func mutateText(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] == '%' || b[i] == '_' {
			continue
		}
		if b[i] == 'x' {
			b[i] = 'y'
		} else {
			b[i] = 'x'
		}
		return string(b)
	}
	return s + "x"
}

func textEqMutants(stmt *sqldb.SelectStmt) []Mutant {
	countSites := func(m *sqldb.SelectStmt, fn func(l *sqldb.LiteralExpr)) {
		var walk func(e sqldb.Expr)
		walk = func(e sqldb.Expr) {
			switch x := e.(type) {
			case *sqldb.BinaryExpr:
				if x.Op == sqldb.OpAnd || x.Op == sqldb.OpOr {
					walk(x.L)
					walk(x.R)
					return
				}
				if x.Op == sqldb.OpEq {
					if l, ok := x.R.(*sqldb.LiteralExpr); ok && l.Val.Typ == sqldb.TText {
						fn(l)
					}
				}
			case *sqldb.NotExpr:
				walk(x.X)
			}
		}
		forEachPredicate(m, walk)
	}
	n := 0
	countSites(stmt, func(*sqldb.LiteralExpr) { n++ })
	var out []Mutant
	for i := 0; i < n; i++ {
		m := sqldb.CloneStmt(stmt)
		idx := 0
		countSites(m, func(l *sqldb.LiteralExpr) {
			if idx == i {
				l.Val = sqldb.NewText(mutateText(l.Val.S))
			}
			idx++
		})
		out = append(out, Mutant{Label: fmt.Sprintf("texteq#%d", i), Stmt: m})
	}
	return out
}

// aggSwaps gives the two replacement functions tried for each
// aggregate, cyclic in the canonical AllAggFns order.
func aggSwaps(fn sqldb.AggFn) []sqldb.AggFn {
	order := sqldb.AllAggFns
	for i, f := range order {
		if f == fn {
			return []sqldb.AggFn{order[(i+1)%len(order)], order[(i+2)%len(order)]}
		}
	}
	return nil
}

// aggSites visits every non-star aggregate of the projection and
// having trees in deterministic order.
func aggSites(m *sqldb.SelectStmt, fn func(a *sqldb.AggExpr)) {
	var walk func(e sqldb.Expr)
	walk = func(e sqldb.Expr) {
		switch x := e.(type) {
		case *sqldb.AggExpr:
			if !x.Star {
				fn(x)
			}
		case *sqldb.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *sqldb.NegExpr:
			walk(x.X)
		case *sqldb.NotExpr:
			walk(x.X)
		case *sqldb.BetweenExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		}
	}
	for _, it := range m.Items {
		walk(it.Expr)
	}
	if m.Having != nil {
		walk(m.Having)
	}
}

func aggMutants(stmt *sqldb.SelectStmt) []Mutant {
	var fns []sqldb.AggFn
	aggSites(stmt, func(a *sqldb.AggExpr) { fns = append(fns, a.Fn) })
	var out []Mutant
	for i, orig := range fns {
		for _, swap := range aggSwaps(orig) {
			swap := swap
			m := sqldb.CloneStmt(stmt)
			idx := 0
			aggSites(m, func(a *sqldb.AggExpr) {
				if idx == i {
					a.Fn = swap
				}
				idx++
			})
			out = append(out, Mutant{Label: fmt.Sprintf("agg:%s->%s#%d", orig, swap, i), Stmt: m})
		}
	}
	return out
}

func distinctMutants(stmt *sqldb.SelectStmt) []Mutant {
	var flags []bool
	aggSites(stmt, func(a *sqldb.AggExpr) { flags = append(flags, a.Fn != sqldb.AggMin && a.Fn != sqldb.AggMax) })
	var out []Mutant
	for i, eligible := range flags {
		if !eligible {
			// min/max are insensitive to duplicates; a distinct toggle
			// there is semantically a no-op and would never be killed.
			continue
		}
		m := sqldb.CloneStmt(stmt)
		idx := 0
		aggSites(m, func(a *sqldb.AggExpr) {
			if idx == i {
				a.Distinct = !a.Distinct
			}
			idx++
		})
		out = append(out, Mutant{Label: fmt.Sprintf("distinct#%d", i), Stmt: m})
	}
	return out
}

// groupMutants derives missing- and extra-group-column mutants. A
// group key is droppable only when it does not appear as a bare
// projection or order key (dropping it would otherwise change the
// query's shape, not just its semantics). Extra columns are taken from
// the from-clause schemas in deterministic order, skipping columns
// already grouped, equality-pinned by a filter (grouping by a pinned
// column never splits a group), or aggregated.
func groupMutants(stmt *sqldb.SelectStmt, schemas []sqldb.TableSchema) []Mutant {
	if len(stmt.GroupBy) == 0 {
		return nil
	}
	var out []Mutant

	bare := map[string]bool{}
	for _, it := range stmt.Items {
		if c, ok := it.Expr.(*sqldb.ColumnExpr); ok {
			bare[strings.ToLower(c.Column)] = true
		}
	}
	for _, k := range stmt.OrderBy {
		if c, ok := k.Expr.(*sqldb.ColumnExpr); ok {
			bare[strings.ToLower(c.Column)] = true
		}
	}
	for i, g := range stmt.GroupBy {
		c, ok := g.(*sqldb.ColumnExpr)
		if !ok || bare[strings.ToLower(c.Column)] {
			continue
		}
		m := sqldb.CloneStmt(stmt)
		m.GroupBy = append(m.GroupBy[:i], m.GroupBy[i+1:]...)
		out = append(out, Mutant{Label: "group-drop:" + c.Column, Stmt: m})
	}

	grouped := map[string]bool{}
	for _, g := range stmt.GroupBy {
		if c, ok := g.(*sqldb.ColumnExpr); ok {
			grouped[strings.ToLower(c.Column)] = true
		}
	}
	pinned := map[string]bool{}
	if a, err := Analyze(stmt, schemas); err == nil {
		for col, c := range a.cons {
			eq := c.hasTextEq || c.boolEq != nil
			if c.hasLo && c.hasHi {
				if cmp, err := sqldb.Compare(c.lo, c.hi); err == nil && cmp == 0 {
					eq = true
				}
			}
			if eq {
				pinned[strings.ToLower(col.Column)] = true
			}
		}
	}
	aggregated := map[string]bool{}
	aggSites(stmt, func(a *sqldb.AggExpr) {
		for _, c := range sqldb.ColumnsOf(a.Arg) {
			aggregated[strings.ToLower(c.Column)] = true
		}
	})
	byName := map[string]sqldb.TableSchema{}
	for _, s := range schemas {
		byName[strings.ToLower(s.Name)] = s
	}
	extras := 0
	for _, t := range stmt.From {
		sch, ok := byName[strings.ToLower(t)]
		if !ok {
			continue
		}
		for _, col := range sch.Columns {
			name := strings.ToLower(col.Name)
			if grouped[name] || pinned[name] || aggregated[name] || extras >= 2 {
				continue
			}
			m := sqldb.CloneStmt(stmt)
			m.GroupBy = append(m.GroupBy, sqldb.Col(t, name))
			out = append(out, Mutant{Label: "group-extra:" + name, Stmt: m})
			extras++
		}
	}
	return out
}
