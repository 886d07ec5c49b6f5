package sqldb

import "context"

// exec_vector.go — the vectorized execution engine.
//
// runVector executes the same compiled plan as runTree but replaces
// every stage:
//
//   - scan+filter works on selections ([]int32 row ids): each table
//     starts from the identity selection, narrowed predicate by
//     predicate in WHERE order by vectorized evaluation over column
//     batches;
//   - the greedy hash join runs over row-id tuple columns and reuses
//     cached build sides (joinbuild.go); a single integer-class key
//     hashes on its int64 payload, every other key shape on GroupKey
//     strings. The join result stays late-materialized — per-table
//     row-id columns plus a selection of surviving tuple positions —
//     and no wide row is built for it;
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
// selection of row ids: vectorized, in WHERE order, each over only
// the rows the previous ones kept (matching the tree engine's per-row
// short-circuit).
func (ex *execution) scanVector(ctx context.Context, t string, ticks *int) ([]int32, error) {
	tbl := ex.db.tables[t]
	// Cost model: a scan charges one tick per stored row, whatever
	// its predicates keep, as in the tree engine.
	if err := chargeTicks(ctx, ticks, len(tbl.Rows)); err != nil {
		return nil, err
	}
	sel := identitySel(len(tbl.Rows))
	for _, p := range ex.pushdown[t] {
		if len(sel) == 0 {
			break // no rows left; the tree engine evaluates nothing either
		}
		v, err := ex.evalVec(p, newBatch(tbl, ex.offsets[t], sel, ex.db.estats))
		if err != nil {
			return nil, err
		}
		// The selection is this scan's own, so it narrows in place.
		kept := sel[:0]
		for k, ri := range sel {
			if !v.nullAt(k) && v.boolAt(k) {
				kept = append(kept, ri)
			}
		}
		sel = kept
	}
	return sel, nil
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
