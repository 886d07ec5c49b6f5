package sqldb

import "context"

// exec_vector.go — the vectorized, index-assisted execution engine.
//
// runVector executes the same compiled plan as runTree but replaces
// every stage:
//
//   - scan+filter works on selections ([]int32 row ids) narrowed by
//     vectorized predicate evaluation over column batches, with
//     secondary indexes (hash for equality, sorted for
//     BETWEEN/inequality ranges) serving eligible predicates;
//   - the greedy hash join runs over row-id tuple columns and reuses
//     cached build sides; a single integer-class key hashes on its
//     int64 payload, every other key shape on GroupKey strings. The
//     join result stays late-materialized — per-table row-id columns
//     plus a selection of surviving tuple positions — and no wide row
//     is built for it;
//   - the post-join tail (residual predicates, aggregation,
//     projection, ORDER BY, LIMIT) evaluates batch-at-a-time in
//     finishVector over joined-tuple batches, which read every column
//     straight from its base table through the tuple's row id, with a
//     top-K heap short-circuiting ordered limited queries.
//     Aggregation builds one wide row per group (its representative);
//     nothing else materializes one.
//
// The tree engine is the differential oracle: every stage here must
// match it on digests, column names, row order and error presence
// (enginediff_test.go). The join replicates the tree engine's greedy
// order (smallest fragment first, from-clause tie-break) and emission
// order (probe order x bucket order), so row order matches too.
//
// Which predicate an index answers is decided by chooseIndexPred: by
// default only the leading pushdown predicate qualifies (skipping it
// cannot skip an error another predicate would have raised), but a
// column carrying index advice (Database.AdviseIndexes — the
// extraction phases declare their repeated probe columns) may be
// served out of order when every predicate before it is provably
// total.

// indexMinRows gates the secondary index: tables smaller than this
// are cheaper to scan than to index. Advised columns bypass the gate
// — the build is amortized across a whole probe fan-out via clone
// sharing, so it pays off even on small tables.
const indexMinRows = 16

func (ex *execution) runVector(ctx context.Context, ticks *int) (*Result, error) {
	sels := map[string][]int32{}
	for _, t := range ex.tables {
		sel, err := ex.scanVector(ctx, t, ticks)
		if err != nil {
			return nil, err
		}
		sels[t] = sel
	}
	tup, sel, err := ex.joinVector(ctx, sels, ticks)
	if err != nil {
		return nil, err
	}
	return ex.finishVector(ctx, tup, sel, ticks)
}

// identitySel returns the selection covering rows [0, n).
func identitySel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// scanVector evaluates a table's pushdown predicates over a narrowing
// selection of row ids. One predicate may be answered by an index
// (chooseIndexPred); the rest evaluate vectorized, in WHERE order,
// each over only the rows the previous ones kept (matching the tree
// engine's per-row short-circuit).
func (ex *execution) scanVector(ctx context.Context, t string, ticks *int) ([]int32, error) {
	tbl := ex.db.tables[t]
	preds := ex.pushdown[t]
	// Cost model: a scan charges one tick per stored row whether or
	// not an index short-circuits the work, so timeout behaviour does
	// not depend on the engine or on index cache state.
	if err := chargeTicks(ctx, ticks, len(tbl.Rows)); err != nil {
		return nil, err
	}
	var sel []int32
	skip, plan := ex.chooseIndexPred(t, tbl, preds)
	if skip >= 0 {
		if plan.eq {
			sel = tbl.pointLookup(plan.ci, plan.key, ex.db.estats)
		} else {
			sel = tbl.rangeLookup(plan.ci, plan.bnd, ex.db.estats)
		}
	} else {
		sel = identitySel(len(tbl.Rows))
	}
	for i, p := range preds {
		if i == skip {
			continue
		}
		if len(sel) == 0 {
			break // no rows left; the tree engine evaluates nothing either
		}
		b := newBatch(tbl, ex.offsets[t], sel, ex.db.estats)
		v, err := ex.evalVec(p, b)
		if err != nil {
			return nil, err
		}
		// Fresh slice: sel may be owned by the index (or by a cached
		// build side) and must never be narrowed in place.
		kept := make([]int32, 0, len(sel))
		for k := range sel {
			if !v.nullAt(k) && v.boolAt(k) {
				kept = append(kept, sel[k])
			}
		}
		sel = kept
	}
	return sel, nil
}

// indexPlan describes how an index answers one pushdown predicate.
type indexPlan struct {
	ci  int
	eq  bool   // hash point lookup (true) vs sorted range probe
	key string // eq: the literal's group key
	bnd rangeBounds
}

// chooseIndexPred picks the pushdown predicate (by position) an index
// will answer, or -1. The leading predicate qualifies when the table
// clears the size gate or its column is advised; a range predicate
// additionally needs advice or an already-built index. A later
// predicate qualifies only when its column is advised AND every
// predicate before it is provably total: rows the index rejects skip
// the earlier predicates entirely, which must not skip an error the
// tree engine would have raised.
//
// Among qualifying predicates, one whose index is already built wins
// over one that would force a build: during minimization the probed
// column is invalidated on every mutation, so serving the probe from
// a sibling column's still-valid index turns an O(n log n) rebuild
// per probe into a cached lookup. Any single qualifying choice is
// result-identical (the remaining predicates filter in WHERE order),
// so preference only shifts cost, never semantics.
func (ex *execution) chooseIndexPred(t string, tbl *Table, preds []Expr) (int, indexPlan) {
	best, bestPlan := -1, indexPlan{}
	for i, p := range preds {
		plan, ok := ex.indexablePred(t, p)
		if !ok {
			continue
		}
		adv := ex.advised(t, plan.ci)
		if !plan.eq && !adv && !tbl.cachedIndex(plan.ci, false) {
			// A range build is a sort — O(n log n) against the O(n)
			// scan it replaces — so it never pays on a one-shot
			// execution. Range pushdown is minimizer-driven: a phase
			// advised the column, or a previous execution already
			// paid for the build.
			continue
		}
		if i == 0 {
			if len(tbl.Rows) < indexMinRows && !adv {
				continue
			}
		} else {
			if !adv {
				continue
			}
			total := true
			for _, q := range preds[:i] {
				if !ex.totalPred(q) {
					total = false
					break
				}
			}
			if !total {
				continue
			}
		}
		if tbl.cachedIndex(plan.ci, plan.eq) {
			return i, plan
		}
		if best < 0 {
			best, bestPlan = i, plan
		}
	}
	return best, bestPlan
}

// advised reports whether (table, local column) carries index advice.
func (ex *execution) advised(t string, ci int) bool {
	for _, c := range ex.db.advice[t] {
		if c == ci {
			return true
		}
	}
	return false
}

// indexablePred recognizes a predicate an index answers with
// scan-identical semantics: equality (hash) or BETWEEN/inequality
// (sorted range).
func (ex *execution) indexablePred(t string, p Expr) (indexPlan, bool) {
	if ci, key, ok := ex.indexableEq(t, p); ok {
		return indexPlan{ci: ci, eq: true, key: key}, true
	}
	if ci, bnd, ok := ex.indexableRange(t, p); ok {
		return indexPlan{ci: ci, bnd: bnd}, true
	}
	return indexPlan{}, false
}

// indexableEq recognizes a predicate a point lookup can answer with
// semantics identical to scanning: `col = literal` (either operand
// order) where the literal is non-NULL and its type equals the
// column's type, the column being int, date, bool or text. For those
// pairings Compare()==0 coincides exactly with group-key equality, so
// the index returns precisely the rows the tree engine keeps, and the
// comparison can never error. Floats are excluded (-0.0 vs 0.0 and
// int/float widening break the key equivalence), as are cross-class
// pairs (the tree engine may need to raise a comparison error).
func (ex *execution) indexableEq(t string, p Expr) (ci int, key string, ok bool) {
	b, isBin := p.(*BinaryExpr)
	if !isBin || b.Op != OpEq {
		return 0, "", false
	}
	col, isCol := b.L.(*ColumnExpr)
	lit, isLit := b.R.(*LiteralExpr)
	if !isCol || !isLit {
		col, isCol = b.R.(*ColumnExpr)
		lit, isLit = b.L.(*LiteralExpr)
		if !isCol || !isLit {
			return 0, "", false
		}
	}
	if lit.Val.Null {
		return 0, "", false
	}
	ci, colTyp, ok := ex.localIndexCol(t, col)
	if !ok || colTyp != lit.Val.Typ {
		return 0, "", false
	}
	switch colTyp {
	case TInt, TDate, TBool, TText:
		return ci, lit.Val.GroupKey(), true
	default:
		return 0, "", false
	}
}

// indexableRange recognizes a predicate a sorted-index probe can
// answer with scan-identical semantics: `col BETWEEN lit AND lit` or
// a single inequality between the column and a literal (either
// operand order), with non-NULL literals whose type equals the
// column's. Eligible types are those whose payload order coincides
// with Compare order (rangeIndexable); floats are excluded exactly as
// for the hash index.
func (ex *execution) indexableRange(t string, p Expr) (int, rangeBounds, bool) {
	switch x := p.(type) {
	case *BetweenExpr:
		col, isCol := x.X.(*ColumnExpr)
		lo, loLit := x.Lo.(*LiteralExpr)
		hi, hiLit := x.Hi.(*LiteralExpr)
		if !isCol || !loLit || !hiLit || lo.Val.Null || hi.Val.Null {
			return 0, rangeBounds{}, false
		}
		ci, typ, ok := ex.localIndexCol(t, col)
		if !ok || !rangeIndexable(typ) || lo.Val.Typ != typ || hi.Val.Typ != typ {
			return 0, rangeBounds{}, false
		}
		return ci, rangeBounds{
			lo: lo.Val, hi: hi.Val,
			hasLo: true, hasHi: true,
			loIncl: true, hiIncl: true,
		}, true
	case *BinaryExpr:
		op := x.Op
		if op != OpLt && op != OpLe && op != OpGt && op != OpGe {
			return 0, rangeBounds{}, false
		}
		col, isCol := x.L.(*ColumnExpr)
		lit, isLit := x.R.(*LiteralExpr)
		if !isCol || !isLit {
			col, isCol = x.R.(*ColumnExpr)
			lit, isLit = x.L.(*LiteralExpr)
			if !isCol || !isLit {
				return 0, rangeBounds{}, false
			}
			// Literal on the left: flip the operator to col-op-lit.
			switch op {
			case OpLt:
				op = OpGt
			case OpLe:
				op = OpGe
			case OpGt:
				op = OpLt
			default:
				op = OpLe
			}
		}
		if lit.Val.Null {
			return 0, rangeBounds{}, false
		}
		ci, typ, ok := ex.localIndexCol(t, col)
		if !ok || !rangeIndexable(typ) || lit.Val.Typ != typ {
			return 0, rangeBounds{}, false
		}
		var bnd rangeBounds
		switch op {
		case OpLt:
			bnd = rangeBounds{hi: lit.Val, hasHi: true}
		case OpLe:
			bnd = rangeBounds{hi: lit.Val, hasHi: true, hiIncl: true}
		case OpGt:
			bnd = rangeBounds{lo: lit.Val, hasLo: true}
		default: // OpGe
			bnd = rangeBounds{lo: lit.Val, hasLo: true, loIncl: true}
		}
		return ci, bnd, true
	}
	return 0, rangeBounds{}, false
}

// localIndexCol resolves a column reference to table t's local column
// index and type; ok is false when the reference belongs to another
// table (or fails to resolve).
func (ex *execution) localIndexCol(t string, col *ColumnExpr) (int, Type, bool) {
	slot, err := ex.slotOf(col)
	if err != nil || slot.tbl != t {
		return 0, TUnknown, false
	}
	ci := slot.idx - ex.offsets[t]
	return ci, ex.schemas[t].Columns[ci].Type, true
}

// totalPred reports whether evaluating p is provably error-free on
// every possible row — the precondition for letting an advised index
// answer a *later* predicate. Comparisons between same-class simple
// operands cannot error (Compare only fails across classes);
// arithmetic can (division by zero, class errors), so any predicate
// containing it is conservatively non-total.
func (ex *execution) totalPred(p Expr) bool {
	switch x := p.(type) {
	case *ColumnExpr:
		_, err := ex.slotOf(x)
		return err == nil
	case *LiteralExpr:
		return true
	case *BinaryExpr:
		switch x.Op {
		case OpAnd, OpOr:
			return ex.totalPred(x.L) && ex.totalPred(x.R)
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			lt, lok := ex.operandClass(x.L)
			rt, rok := ex.operandClass(x.R)
			return lok && rok && sameClass(lt, rt)
		default:
			return false
		}
	case *NotExpr:
		return ex.totalPred(x.X)
	case *IsNullExpr:
		_, ok := ex.operandClass(x.X)
		return ok
	case *LikeExpr:
		typ, ok := ex.operandClass(x.X)
		return ok && typ == TText
	case *BetweenExpr:
		xt, xok := ex.operandClass(x.X)
		lt, lok := ex.operandClass(x.Lo)
		ht, hok := ex.operandClass(x.Hi)
		return xok && lok && hok && sameClass(xt, lt) && sameClass(xt, ht)
	default:
		return false
	}
}

// operandClass returns the type class of a simple operand: a resolved
// column reference (its non-NULL values carry exactly the column
// type, by insert-time coercion) or a non-NULL literal. Anything else
// — including NULL literals, whose class depends on context — is not
// simple and defeats the totality proof.
func (ex *execution) operandClass(e Expr) (Type, bool) {
	switch x := e.(type) {
	case *ColumnExpr:
		slot, err := ex.slotOf(x)
		if err != nil {
			return TUnknown, false
		}
		ci := slot.idx - ex.offsets[slot.tbl]
		return ex.schemas[slot.tbl].Columns[ci].Type, true
	case *LiteralExpr:
		if x.Val.Null {
			return TUnknown, false
		}
		return x.Val.Typ, true
	}
	return TUnknown, false
}

// joinVector replicates the tree engine's greedy hash join over
// columnar tuples: one []int32 of row ids per joined table, aligned
// by tuple position. Build sides come from the per-table cache, so a
// probe re-executed on an unchanged (or non-key-mutated) clone
// rebuilds nothing. The result stays late-materialized: the returned
// tuples plus the selection of tuple positions that satisfy every
// cycle edge not consumed as a hash key; no wide row is built. Ticks
// are charged per logical row exactly as the tree engine's per-row
// checkCtx calls do: build side size per hash join, probe-tuple count
// per probe pass, pair count per cross product — independent of
// build-cache hits.
func (ex *execution) joinVector(ctx context.Context, sels map[string][]int32, ticks *int) (*tuples, []int32, error) {
	pos := make(map[string]int, len(ex.tables))
	tup := &tuples{
		tbls:  make([]*Table, len(ex.tables)),
		offs:  make([]int, len(ex.tables)),
		ids:   make([][]int32, len(ex.tables)),
		slotT: make([]int, ex.width),
		slotC: make([]int, ex.width),
		types: make([]Type, ex.width),
	}
	for ti, t := range ex.tables {
		pos[t] = ti
		tup.tbls[ti] = ex.db.tables[t]
		off := ex.offsets[t]
		tup.offs[ti] = off
		for ci, c := range ex.schemas[t].Columns {
			tup.slotT[off+ci] = ti
			tup.slotC[off+ci] = ci
			tup.types[off+ci] = c.Type
		}
	}

	remaining := map[string]bool{}
	for _, t := range ex.tables {
		remaining[t] = true
	}
	start := ex.tables[0]
	for _, t := range ex.tables[1:] {
		if len(sels[t]) < len(sels[start]) {
			start = t
		}
	}
	delete(remaining, start)
	joined := map[string]bool{start: true}
	tup.ids[pos[start]] = sels[start]
	tupLen := len(sels[start])

	for len(remaining) > 0 {
		next := ""
		for _, t := range ex.tables {
			if !remaining[t] {
				continue
			}
			connected := false
			for _, e := range ex.joins {
				if (joined[e.lt] && e.rt == t) || (joined[e.rt] && e.lt == t) {
					connected = true
					break
				}
			}
			if connected && (next == "" || len(sels[t]) < len(sels[next])) {
				next = t
			}
		}
		cross := false
		if next == "" {
			cross = true
			for _, t := range ex.tables {
				if !remaining[t] {
					continue
				}
				if next == "" || len(sels[t]) < len(sels[next]) {
					next = t
				}
			}
		}
		delete(remaining, next)

		// Each output tuple extends probe tuple probeOf[j] with row
		// nextIDs[j] of next; the joined tables' id columns are
		// gathered through probeOf afterwards.
		var probeOf, nextIDs []int32
		if cross {
			if err := chargeTicks(ctx, ticks, tupLen*len(sels[next])); err != nil {
				return nil, nil, err
			}
			for i := 0; i < tupLen; i++ {
				for _, rid := range sels[next] {
					probeOf = append(probeOf, int32(i))
					nextIDs = append(nextIDs, rid)
				}
			}
		} else {
			var err error
			probeOf, nextIDs, err = ex.hashJoin(ctx, tup, tupLen, joined, next, sels[next], ticks)
			if err != nil {
				return nil, nil, err
			}
		}
		// Gather the joined tables' id columns through probeOf.
		for ti, t := range ex.tables {
			if !joined[t] {
				continue
			}
			src := tup.ids[ti]
			ids := make([]int32, len(probeOf))
			for j, i := range probeOf {
				ids[j] = src[i]
			}
			tup.ids[ti] = ids
		}
		tup.ids[pos[next]] = nextIDs
		tupLen = len(probeOf)
		joined[next] = true
	}

	// Enforce cycle edges not consumed as hash keys by narrowing the
	// tuple selection.
	sel := identitySel(tupLen)
	var unused []joinEdge
	for _, e := range ex.joins {
		if !e.used {
			unused = append(unused, e)
		}
	}
	if len(unused) > 0 {
		kept := sel[:0]
		for _, i := range sel {
			ok := true
			for _, e := range unused {
				if !Equal(tup.value(i, e.li), tup.value(i, e.ri)) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	return tup, sel, nil
}

// hashJoin extends the tupLen joined tuples with table next, keyed on
// every join edge connecting next to the joined set (marking those
// edges used). Output tuple j extends probe tuple probeOf[j] with row
// nextIDs[j] of next, in probe order x bucket order — the tree
// engine's emission order.
func (ex *execution) hashJoin(ctx context.Context, tup *tuples, tupLen int, joined map[string]bool, next string, nextSel []int32, ticks *int) ([]int32, []int32, error) {
	nOff := ex.offsets[next]
	nTbl := ex.db.tables[next]
	var probeIdx, buildLocal []int
	for i := range ex.joins {
		e := &ex.joins[i]
		switch {
		case joined[e.lt] && e.rt == next:
			probeIdx = append(probeIdx, e.li)
			buildLocal = append(buildLocal, e.ri-nOff)
			e.used = true
		case joined[e.rt] && e.lt == next:
			probeIdx = append(probeIdx, e.ri)
			buildLocal = append(buildLocal, e.li-nOff)
			e.used = true
		}
	}
	if err := chargeTicks(ctx, ticks, len(nextSel)); err != nil {
		return nil, nil, err
	}
	intKey := len(probeIdx) == 1 && intClass(tup.types[probeIdx[0]]) &&
		intClass(nTbl.Schema.Columns[buildLocal[0]].Type)
	var buildI map[int64][]int32
	var buildS map[string][]int32
	if intKey {
		buildI = nTbl.joinBuildInt(buildLocal[0], nextSel, ex.db.estats)
	} else {
		buildS = nTbl.joinBuildFor(buildLocal, nextSel, ex.db.estats)
	}
	if err := chargeTicks(ctx, ticks, tupLen); err != nil {
		return nil, nil, err
	}
	var probeOf, nextIDs []int32
	var key []byte
	for i := 0; i < tupLen; i++ {
		var bucket []int32
		if intKey {
			v := tup.value(int32(i), probeIdx[0])
			if v.Null {
				continue // NULL join key never matches
			}
			bucket = buildI[v.I]
		} else {
			key = key[:0]
			nullKey := false
			for _, p := range probeIdx {
				v := tup.value(int32(i), p)
				if v.Null {
					nullKey = true
					break
				}
				key = append(appendGroupKey(key, v), '|')
			}
			if nullKey {
				continue
			}
			bucket = buildS[string(key)]
		}
		for _, rid := range bucket {
			probeOf = append(probeOf, int32(i))
			nextIDs = append(nextIDs, rid)
		}
	}
	return probeOf, nextIDs, nil
}

// intClass reports whether a column type stores its payload in I and
// renders its GroupKey as "i"+digits — the key shapes an int64 hash
// join matches exactly as the GroupKey string join does.
func intClass(t Type) bool { return t == TInt || t == TDate || t == TBool }

// finishVector is the vector engine's post-join tail: the same
// residual → aggregate/project → order → limit pipeline as finish(),
// evaluated batch-at-a-time over the selected joined tuples. Stage
// semantics — which (row, expression) pairs get evaluated, grouping
// key equality and first-seen order, ordering ties, the empty-input
// aggregation corner — replicate the tree engine exactly.
func (ex *execution) finishVector(ctx context.Context, tup *tuples, sel []int32, ticks *int) (*Result, error) {
	// 3. Residual predicates, vectorized over a narrowing selection.
	if len(ex.residual) > 0 {
		// One tick per joined row, like finish(): the charge does not
		// depend on the predicate count in either engine.
		if err := chargeTicks(ctx, ticks, len(sel)); err != nil {
			return nil, err
		}
		b := newTupleBatch(tup, sel, ex.db.estats)
		for _, p := range ex.residual {
			if len(sel) == 0 {
				break
			}
			v, err := ex.evalVec(p, b)
			if err != nil {
				return nil, err
			}
			kept := make([]int32, 0, len(sel))
			for k := range sel {
				if !v.nullAt(k) && v.boolAt(k) {
					kept = append(kept, sel[k])
				}
			}
			sel = kept
			b = b.sub(sel)
		}
	}

	// 4. Grouping / aggregation, or plain projection.
	var out *Result
	var err error
	if len(ex.stmt.GroupBy) > 0 || len(ex.aggs) > 0 {
		out, err = ex.aggregateVector(ctx, tup, sel, ticks)
	} else {
		out, err = ex.projectVector(ctx, tup, sel, ticks)
	}
	if err != nil {
		return nil, err
	}

	// 5. Order by (with top-K short-circuit under LIMIT).
	if len(ex.stmt.OrderBy) > 0 {
		if err := ex.orderVector(out, tup, sel); err != nil {
			return nil, err
		}
	}

	// 6. Limit. A top-K sort already returned exactly the limit
	// prefix; this is then a no-op.
	if ex.stmt.Limit > 0 && int64(len(out.Rows)) > ex.stmt.Limit {
		out.Rows = out.Rows[:ex.stmt.Limit]
	}
	return out, nil
}

// projectVector emits one output row per selected tuple (no
// aggregation), evaluating each select item as one vector over the
// batch.
func (ex *execution) projectVector(ctx context.Context, tup *tuples, sel []int32, ticks *int) (*Result, error) {
	if err := chargeTicks(ctx, ticks, len(sel)); err != nil {
		return nil, err
	}
	res := &Result{Columns: ex.outputColumns()}
	if len(sel) == 0 {
		return res, nil
	}
	b := newTupleBatch(tup, sel, ex.db.estats)
	vecs := make([]*vec, len(ex.stmt.Items))
	for i, it := range ex.stmt.Items {
		v, err := ex.evalVec(it.Expr, b)
		if err != nil {
			return nil, err
		}
		vecs[i] = v
	}
	res.Rows = make([]Row, len(sel))
	for k := range sel {
		out := make(Row, len(vecs))
		for i, v := range vecs {
			out[i] = v.valueAt(k)
		}
		res.Rows[k] = out
	}
	return res, nil
}
