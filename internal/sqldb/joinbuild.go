package sqldb

import "slices"

// joinbuild.go — the per-table hash-join build cache, the vector
// engine's only cache. Probe storms re-execute the same join shapes
// over unchanged (or non-key-mutated) tables; a cached build side
// spares the rebuild.

// joinBuild is one cached hash-join build side: the map from join key
// to row ids, valid for exactly the (columns, selected row ids) pair
// it was built from. Row ids (not rows) are stored, so value
// mutations of non-key columns never stale an entry; row-set
// mutations invalidate everything via the table's mutation hooks.
//
// Exactly one map is set. m keys on the concatenated GroupKeys of the
// key columns; mi serves a single integer-class key column (TInt,
// TDate, TBool — the types whose GroupKey is "i"+digits) by its int64
// payload, so it holds exactly the buckets of the string build.
type joinBuild struct {
	cols []int   // local column indexes forming the key
	sel  []int32 // the filtered row ids the map covers
	m    map[string][]int32
	mi   map[int64][]int32
}

// maxJoinBuilds caps the per-table build cache (FIFO eviction). Probe
// workloads hammer a handful of join shapes per table; eight covers
// every query in the corpus with room to spare.
const maxJoinBuilds = 8

// invalidateBuilds drops every cached build side. Called by every
// row-set mutation (insert, truncate, sampling, row deletion,
// SetRows): row ids shift, so id-based caches cannot be remapped.
func (t *Table) invalidateBuilds() {
	t.buildMu.Lock()
	t.builds = nil
	t.buildMu.Unlock()
}

// invalidateColumn drops the build sides keyed on column ci. Value
// mutations (Set, SetAll, NegateColumn) leave row ids stable, so
// builds over *other* columns stay valid — that is what lets join-key
// builds survive the minimizer's filter probes, which rewrite
// candidate filter columns in place.
func (t *Table) invalidateColumn(ci int) {
	t.buildMu.Lock()
	kept := t.builds[:0]
	for _, b := range t.builds {
		if !slices.Contains(b.cols, ci) {
			kept = append(kept, b)
		}
	}
	t.builds = kept
	t.buildMu.Unlock()
}

// joinBuildFor returns the hash-join build map for (cols, sel),
// reusing a cached build when an identical one exists. A hit requires
// the same key columns and the exact same selected row ids — compared
// elementwise, never by hash, so a stale or colliding entry can never
// be returned. sel must be immutable after the call (the vector
// engine builds a fresh selection per execution and never mutates it).
func (t *Table) joinBuildFor(cols []int, sel []int32, es *EngineStats) map[string][]int32 {
	t.buildMu.Lock()
	defer t.buildMu.Unlock()
	if b := t.cachedBuildLocked(cols, sel, false, es); b != nil {
		return b.m
	}
	m := make(map[string][]int32, len(sel))
	for _, ri := range sel {
		key, ok := joinKeyLocal(t.Rows[ri], cols)
		if !ok {
			continue // NULL join key never matches
		}
		m[key] = append(m[key], ri)
	}
	t.addBuildLocked(&joinBuild{cols: append([]int(nil), cols...), sel: sel, m: m}, es)
	return m
}

// joinBuildInt is joinBuildFor for a single integer-class key column,
// keyed by the int64 payload. Its entries share the build cache (and
// the JoinBuilds/JoinReuses counters) with the string builds but
// never satisfy a string-build lookup, nor the reverse.
func (t *Table) joinBuildInt(ci int, sel []int32, es *EngineStats) map[int64][]int32 {
	t.buildMu.Lock()
	defer t.buildMu.Unlock()
	cols := []int{ci}
	if b := t.cachedBuildLocked(cols, sel, true, es); b != nil {
		return b.mi
	}
	m := make(map[int64][]int32, len(sel))
	for _, ri := range sel {
		v := t.Rows[ri][ci]
		if v.Null {
			continue // NULL join key never matches
		}
		m[v.I] = append(m[v.I], ri)
	}
	t.addBuildLocked(&joinBuild{cols: cols, sel: sel, mi: m}, es)
	return m
}

// cachedBuildLocked returns the cached build of the given kind for
// (cols, sel), counting the reuse, or nil. Callers hold buildMu.
func (t *Table) cachedBuildLocked(cols []int, sel []int32, ints bool, es *EngineStats) *joinBuild {
	for _, b := range t.builds {
		if (b.mi != nil) == ints && slices.Equal(b.cols, cols) && slices.Equal(b.sel, sel) {
			es.JoinReuses.Add(1)
			return b
		}
	}
	return nil
}

// addBuildLocked caches a fresh build (FIFO eviction at the cap) and
// counts it. Callers hold buildMu.
func (t *Table) addBuildLocked(b *joinBuild, es *EngineStats) {
	if len(t.builds) >= maxJoinBuilds {
		t.builds = append(t.builds[:0], t.builds[1:]...)
	}
	t.builds = append(t.builds, b)
	es.JoinBuilds.Add(1)
}
