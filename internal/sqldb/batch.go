package sqldb

// batch.go — typed column batches for the vectorized engine.
//
// A batch exposes a row source, restricted to a selection, as typed
// column vectors: per-column value slices plus a validity (null)
// bitmap, gathered lazily on first reference. The vectorized
// predicate evaluator (vector.go) computes over these instead of
// per-row []Value wide rows, which removes the tree engine's dominant
// allocation (one width-sized Row per scanned row).
//
// Two sources exist. A table source (scan-side batches) selects row
// ids and addresses the table's own columns. A joined-tuple source
// (post-join batches) selects tuple positions of the late-materialized
// join result and addresses every wide-row slot, reading each value
// straight from its base table through the tuple's row id — no wide
// row is ever built for it. Both sources hold values coerced to their
// column's schema type, so the typed fast paths apply to either.

// vec is one column vector: len(sel) logical elements of a single
// type. Storage is typed — ints carries TInt/TDate/TBool payloads,
// floats TFloat, strs TText — with null as the validity bitmap (a nil
// null slice means no NULLs). Two special layouts exist:
//
//   - isConst: a broadcast scalar (literal); physical length 1.
//   - vals:    boxed Values, used for computed results (arithmetic,
//     negation) whose elements are produced by the scalar operators
//     to keep semantics identical to the tree engine.
//
// A vec's non-null elements all share the vec's type; the nominal
// type of a NULL element is not tracked because no predicate outcome
// or error can observe it (every operator null-checks before any
// type-sensitive step, mirroring the tree evaluator).
type vec struct {
	typ     Type
	n       int // logical length
	isConst bool
	null    []bool
	ints    []int64
	floats  []float64
	strs    []string
	vals    []Value
}

// at maps a logical position to a physical storage index.
func (v *vec) at(k int) int {
	if v.isConst {
		return 0
	}
	return k
}

func (v *vec) nullAt(k int) bool {
	if v.vals != nil {
		return v.vals[v.at(k)].Null
	}
	return v.null != nil && v.null[v.at(k)]
}

// valueAt reconstructs the element as a scalar Value. For typed
// storage this is exact: stored values are coerced to their column
// type on insert, so a TFloat element always has I==0 and a
// TInt/TDate/TBool element always has F==0 — reconstruction loses
// nothing the tree engine could observe.
func (v *vec) valueAt(k int) Value {
	i := v.at(k)
	if v.vals != nil {
		return v.vals[i]
	}
	if v.null != nil && v.null[i] {
		return NewNull(v.typ)
	}
	switch v.typ {
	case TFloat:
		return Value{Typ: TFloat, F: v.floats[i]}
	case TText:
		return Value{Typ: TText, S: v.strs[i]}
	default: // TInt, TDate, TBool
		return Value{Typ: v.typ, I: v.ints[i]}
	}
}

// boolAt reports the element's truth value (Value.Bool semantics:
// NULL is false, and only the I payload counts).
func (v *vec) boolAt(k int) bool {
	if v.nullAt(k) {
		return false
	}
	if v.vals != nil {
		return v.vals[v.at(k)].Bool()
	}
	switch v.typ {
	case TFloat, TText:
		return false // I payload is zero for these layouts
	default:
		return v.ints[v.at(k)] != 0
	}
}

// newBoolVec allocates a TBool result vector of length n.
func newBoolVec(n int) *vec {
	return &vec{typ: TBool, n: n, null: make([]bool, n), ints: make([]int64, n)}
}

// newValsVec allocates a boxed-values vector of length n for computed
// results; typ is refined as elements are produced.
func newValsVec(n int) *vec {
	return &vec{typ: TUnknown, n: n, vals: make([]Value, n)}
}

// constVec broadcasts one scalar (a literal) across the batch.
func constVec(val Value, n int) *vec {
	return &vec{typ: val.Typ, n: n, isConst: true, vals: []Value{val}}
}

// tuples is the vector join's late-materialized result: for every
// from-clause table, the row id it contributes to each joined tuple,
// aligned by tuple position. A column of the join result is read
// through these ids from the base table, so the join never copies a
// row; wide rows are built only where a consumer needs one (one per
// aggregation group, via wide).
type tuples struct {
	tbls  []*Table  // per from-clause table
	offs  []int     // per from-clause table: first wide-row slot
	ids   [][]int32 // per from-clause table: row id of each tuple
	slotT []int     // wide slot -> from-clause table position
	slotC []int     // wide slot -> local column index
	types []Type    // wide slot -> schema type
}

// value reads wide slot `slot` of tuple i.
func (tp *tuples) value(i int32, slot int) Value {
	t := tp.slotT[slot]
	return tp.tbls[t].Rows[tp.ids[t][i]][tp.slotC[slot]]
}

// wide materializes tuple i as a wide row.
func (tp *tuples) wide(i int32) Row {
	w := make(Row, len(tp.slotT))
	for t, tbl := range tp.tbls {
		copy(w[tp.offs[t]:], tbl.Rows[tp.ids[t][i]])
	}
	return w
}

// batch is a row source restricted to a selection, with lazily
// gathered column vectors aligned to that selection. Exactly one of
// tbl/tup is set.
type batch struct {
	tbl  *Table  // table source (scan-side batches): sel holds row ids
	tup  *tuples // joined-tuple source (post-join batches): sel holds tuple positions
	name string  // source name for resolution error messages

	off int     // first wide-row slot addressed by this batch
	sel []int32 // selected row ids or tuple positions, ascending
	es  *EngineStats

	cols map[int]*vec // local column index -> gathered vector
}

func newBatch(tbl *Table, off int, sel []int32, es *EngineStats) *batch {
	return &batch{tbl: tbl, name: tbl.Schema.Name, off: off, sel: sel, es: es, cols: map[int]*vec{}}
}

// newTupleBatch exposes the selected joined tuples as a batch: every
// wide-row slot is addressable (off 0), typed by the owning column's
// schema type. The post-join stages (residual, aggregation,
// projection, ordering) evaluate over these.
func newTupleBatch(tup *tuples, sel []int32, es *EngineStats) *batch {
	return &batch{tup: tup, name: "the join result", sel: sel, es: es, cols: map[int]*vec{}}
}

// ncol reports the number of addressable local columns.
func (b *batch) ncol() int {
	if b.tbl != nil {
		return len(b.tbl.Schema.Columns)
	}
	return len(b.tup.types)
}

// sub derives a batch over the same source restricted to subSel.
func (b *batch) sub(subSel []int32) *batch {
	nb := *b
	nb.sel = subSel
	nb.cols = map[int]*vec{}
	return &nb
}

// col gathers (once) and returns the vector for a local column.
func (b *batch) col(ci int) *vec {
	if v, ok := b.cols[ci]; ok {
		return v
	}
	n := len(b.sel)
	var typ Type
	if b.tbl != nil {
		typ = b.tbl.Schema.Columns[ci].Type
	} else {
		typ = b.tup.types[ci]
	}
	v := &vec{typ: typ, n: n}
	switch typ {
	case TFloat:
		v.floats = make([]float64, n)
	case TText:
		v.strs = make([]string, n)
	default:
		v.ints = make([]int64, n)
	}
	if b.tbl != nil {
		rows := b.tbl.Rows
		for k, ri := range b.sel {
			v.put(k, rows[ri][ci])
		}
	} else {
		t := b.tup.slotT[ci]
		rows, ids, lc := b.tup.tbls[t].Rows, b.tup.ids[t], b.tup.slotC[ci]
		for k, i := range b.sel {
			v.put(k, rows[ids[i]][lc])
		}
	}
	b.cols[ci] = v
	b.es.VectorBatches.Add(1)
	return v
}

// put stores val as element k of a typed (gathered) vector.
func (v *vec) put(k int, val Value) {
	if val.Null {
		if v.null == nil {
			v.null = make([]bool, v.n)
		}
		v.null[k] = true
		return
	}
	switch v.typ {
	case TFloat:
		v.floats[k] = val.F
	case TText:
		v.strs[k] = val.S
	default:
		v.ints[k] = val.I
	}
}
