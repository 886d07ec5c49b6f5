package sqldb

// joinbuild_test.go — property tests for the hash-join build cache,
// the engine's only index: a build side maps join keys to row ids,
// and every bucket must agree with a full scan across arbitrary
// mutation sequences, SnapshotRows / SetRows round-trips, clones and
// concurrent first builds. A stale cached build reused after a
// mutation would show up here as a bucket that disagrees with the
// scan.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// newBuildTestTable builds a table over an integer key column k with
// NULLs sprinkled in, plus a payload column w.
func newBuildTestTable(t *testing.T, n int, rng *rand.Rand) *Table {
	t.Helper()
	tbl := NewTable(TableSchema{Name: "p", Columns: []Column{
		{Name: "k", Type: TInt},
		{Name: "w", Type: TInt},
	}})
	for i := 0; i < n; i++ {
		k := NewInt(rng.Int63n(10))
		if rng.Intn(8) == 0 {
			k = NewNull(TInt)
		}
		if err := tbl.Insert(k, NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// scanLookup is the oracle: the row ids a sequential scan keeps for
// `col-ci = key`.
func scanLookup(tbl *Table, ci int, key string) []int32 {
	var ids []int32
	for ri, row := range tbl.Rows {
		if !row[ci].Null && row[ci].GroupKey() == key {
			ids = append(ids, int32(ri))
		}
	}
	return ids
}

// checkAllKeys compares both build flavours over the whole table —
// the GroupKey-string build and the int64 build on column k, each
// served from the cache when an identical one exists — against the
// scan oracle for every key value in the domain plus an absent one.
func checkAllKeys(t *testing.T, tbl *Table, es *EngineStats, step string) {
	t.Helper()
	sel := identitySel(tbl.RowCount())
	bs := tbl.joinBuildFor([]int{0}, sel, es)
	bi := tbl.joinBuildInt(0, sel, es)
	for k := int64(0); k <= 10; k++ {
		key := NewInt(k).GroupKey()
		want := scanLookup(tbl, 0, key)
		if got := bs[key+"|"]; !slices.Equal(got, want) {
			t.Fatalf("%s: key %d: string build=%v scan=%v", step, k, got, want)
		}
		if got := bi[k]; !slices.Equal(got, want) {
			t.Fatalf("%s: key %d: int build=%v scan=%v", step, k, got, want)
		}
	}
}

// TestIndexMatchesScanUnderMutation drives a random mutation sequence
// and re-validates every build bucket after each step.
func TestIndexMatchesScanUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tbl := newBuildTestTable(t, 64, rng)
	es := &EngineStats{}
	checkAllKeys(t, tbl, es, "initial")
	for step := 0; step < 200; step++ {
		switch rng.Intn(7) {
		case 0:
			if err := tbl.Insert(NewInt(rng.Int63n(10)), NewInt(int64(step))); err != nil {
				t.Fatal(err)
			}
		case 1:
			if len(tbl.Rows) > 0 {
				if err := tbl.Set(rng.Intn(len(tbl.Rows)), "k", NewInt(rng.Int63n(10))); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			if len(tbl.Rows) > 0 {
				if err := tbl.Set(rng.Intn(len(tbl.Rows)), "k", NewNull(TInt)); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			if len(tbl.Rows) > 1 {
				if err := tbl.DeleteRow(rng.Intn(len(tbl.Rows))); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if len(tbl.Rows) > 0 {
				if _, err := tbl.AppendRowCopy(rng.Intn(len(tbl.Rows))); err != nil {
					t.Fatal(err)
				}
			}
		case 5:
			// Mutating the non-key column must leave the key builds
			// valid (per-column invalidation).
			if err := tbl.SetAll("w", NewInt(rng.Int63n(5))); err != nil {
				t.Fatal(err)
			}
		default:
			if len(tbl.Rows) > 8 {
				lo := rng.Intn(4)
				if err := tbl.KeepRange(lo, lo+rng.Intn(len(tbl.Rows)-lo)); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkAllKeys(t, tbl, es, fmt.Sprintf("step %d", step))
	}
	if es.JoinReuses.Load() == 0 {
		t.Fatal("no build was ever served from the cache")
	}
}

// TestIndexSurvivesSetRowsRoundTrip exercises the SnapshotRows /
// SetRows pattern the minimizer uses: the builds must be invalidated
// by SetRows and rebuilt correctly against the restored rows.
func TestIndexSurvivesSetRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := newBuildTestTable(t, 48, rng)
	es := &EngineStats{}
	checkAllKeys(t, tbl, es, "before snapshot")

	snap := tbl.SnapshotRows()
	if err := tbl.KeepRange(0, 4); err != nil {
		t.Fatal(err)
	}
	checkAllKeys(t, tbl, es, "after KeepRange")

	tbl.SetRows(snap)
	checkAllKeys(t, tbl, es, "after restore")
	if got, want := tbl.RowCount(), len(snap); got != want {
		t.Fatalf("restored %d rows, want %d", got, want)
	}
}

// TestCloneIndexIsolation asserts clones never share the build
// cache: a clone starts with no builds, and mutating either side
// leaves the other side's builds consistent with its own rows.
func TestCloneIndexIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := newBuildTestTable(t, 32, rng)
	es := &EngineStats{}
	checkAllKeys(t, tbl, es, "warm original") // caches the builds

	cl := tbl.Clone()
	if cl.builds != nil {
		t.Fatal("clone inherited the build cache")
	}
	if err := cl.SetAll("k", NewInt(3)); err != nil {
		t.Fatal(err)
	}
	checkAllKeys(t, cl, es, "mutated clone")
	checkAllKeys(t, tbl, es, "original after clone mutation")

	// CloneShared shares row storage but must not share builds either.
	db := NewDatabase()
	if err := db.CreateTable(TableSchema{Name: "p", Columns: []Column{
		{Name: "k", Type: TInt}, {Name: "w", Type: TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	orig, _ := db.Table("p")
	for i := 0; i < 32; i++ {
		orig.MustInsert(NewInt(int64(i%6)), NewInt(int64(i)))
	}
	checkAllKeys(t, orig, db.estats, "warm shared original")
	shared := db.CloneShared()
	st, _ := shared.Table("p")
	if st.builds != nil {
		t.Fatal("CloneShared table inherited the build cache")
	}
	st.SetRows(append([]Row{}, orig.Rows[:8]...))
	checkAllKeys(t, st, shared.estats, "shared clone after SetRows")
	checkAllKeys(t, orig, db.estats, "shared original")
}

// TestConcurrentPointLookup hammers the lazy build path from many
// goroutines (run under -race by CI): concurrent first builds of the
// same (cols, sel) must serialize into one build, and every bucket
// looked up in it must be scan-consistent.
func TestConcurrentPointLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl := newBuildTestTable(t, 128, rng)
	es := &EngineStats{}
	sel := identitySel(tbl.RowCount())
	want := map[int64][]int32{}
	for k := int64(0); k < 10; k++ {
		want[k] = scanLookup(tbl, 0, NewInt(k).GroupKey())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			build := tbl.joinBuildFor([]int{0}, sel, es)
			for k := int64(0); k < 10; k++ {
				if got := build[NewInt(k).GroupKey()+"|"]; !slices.Equal(got, want[k]) {
					errs <- fmt.Errorf("goroutine %d key %d: got %v want %v", g, k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if b := es.JoinBuilds.Load(); b != 1 {
		t.Fatalf("build side constructed %d times under concurrency, want 1", b)
	}
}

// TestJoinBuildCache pins build-side reuse: identical (cols, sel)
// pairs hit the cache, different selections rebuild, and the FIFO cap
// bounds retained builds.
func TestJoinBuildCache(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tbl := newBuildTestTable(t, 40, rng)
	es := &EngineStats{}
	sel := identitySel(tbl.RowCount())
	b1 := tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinBuilds.Load(); got != 1 {
		t.Fatalf("builds=%d, want 1", got)
	}
	b2 := tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinReuses.Load(); got != 1 {
		t.Fatalf("reuses=%d, want 1", got)
	}
	if len(b1) != len(b2) {
		t.Fatalf("cached build differs: %d vs %d buckets", len(b1), len(b2))
	}
	// A different selection must not hit the cache.
	tbl.joinBuildFor([]int{0}, sel[:10], es)
	if got := es.JoinReuses.Load(); got != 1 {
		t.Fatalf("reuses=%d after different sel, want 1", got)
	}
	// Build map contents agree with a scan.
	for k := int64(0); k < 10; k++ {
		key := NewInt(k).GroupKey() + "|"
		if !slices.Equal(b1[key], scanLookup(tbl, 0, NewInt(k).GroupKey())) {
			t.Fatalf("build bucket for key %d disagrees with scan", k)
		}
	}
	// FIFO cap: many distinct selections never grow past maxJoinBuilds.
	for i := 0; i < 3*maxJoinBuilds; i++ {
		tbl.joinBuildFor([]int{0}, sel[:1+i%20], es)
	}
	tbl.buildMu.Lock()
	n := len(tbl.builds)
	tbl.buildMu.Unlock()
	if n > maxJoinBuilds {
		t.Fatalf("build cache holds %d entries, cap is %d", n, maxJoinBuilds)
	}
}

// TestBuildCacheColumnInvalidation pins invalidateColumn against the
// build cache: mutating a key column drops the builds using it,
// mutating another column keeps them.
func TestBuildCacheColumnInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tbl := newBuildTestTable(t, 40, rng)
	es := &EngineStats{}
	sel := identitySel(tbl.RowCount())
	tbl.joinBuildFor([]int{0}, sel, es)
	if err := tbl.SetAll("w", NewInt(9)); err != nil { // column 1: build on column 0 survives
		t.Fatal(err)
	}
	tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinReuses.Load(); got != 1 {
		t.Fatalf("reuses=%d after non-key mutation, want 1", got)
	}
	if err := tbl.SetAll("k", NewInt(9)); err != nil { // column 0: build dropped
		t.Fatal(err)
	}
	tbl.joinBuildFor([]int{0}, sel, es)
	if got := es.JoinBuilds.Load(); got != 2 {
		t.Fatalf("builds=%d after key mutation, want 2", got)
	}
	// Same length, different ids: elementwise comparison must miss.
	sel2 := append([]int32(nil), sel...)
	sel2[len(sel2)-1] = sel2[0]
	tbl.joinBuildFor([]int{0}, sel2, es)
	if got := es.JoinBuilds.Load(); got != 3 {
		t.Fatalf("builds=%d after permuted sel, want 3", got)
	}
}
