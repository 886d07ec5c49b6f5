package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/sqldb"
)

func cachePath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "probecache.log")
}

func openCache(t *testing.T, path string) *ProbeCache {
	t.Helper()
	pc, err := OpenProbeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func sampleResult() *sqldb.Result {
	return sqldb.RestoreResult(
		[]string{"o_orderkey", "revenue"},
		[]sqldb.Row{
			{sqldb.NewInt(7), sqldb.NewFloat(1234.5)},
			{sqldb.NewInt(9), sqldb.NewNull(sqldb.TFloat)},
		},
		false,
	)
}

func resultsEqual(t *testing.T, ctx string, got, want *sqldb.Result) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, want %v", ctx, got, want)
	}
	if got == nil {
		return
	}
	if got.AggEmptyInput() != want.AggEmptyInput() {
		t.Fatalf("%s: aggEmptyInput %v != %v", ctx, got.AggEmptyInput(), want.AggEmptyInput())
	}
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d columns, want %d", ctx, len(got.Columns), len(want.Columns))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("%s: column %d = %q, want %q", ctx, i, got.Columns[i], want.Columns[i])
		}
	}
	rowsEqual(t, ctx, got.Rows, want.Rows)
}

func TestProbeCacheResultRoundTrip(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace(AppNamespace("tpch/Q3", 1))
	fp := sqldb.Fingerprint{1, 2, 3}
	want := sampleResult()

	if _, _, ok := ns.Get(fp); ok {
		t.Fatal("hit on empty cache")
	}
	ns.Put(fp, want, nil)
	res, err, ok := ns.Get(fp)
	if !ok || err != nil {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	resultsEqual(t, "same-handle", res, want)
	// Mutating the returned clone must not poison the cache.
	res.Rows[0][0] = sqldb.NewInt(999)
	res2, _, _ := ns.Get(fp)
	resultsEqual(t, "after-mutation", res2, want)
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}

	// The outcome survives a restart.
	pc2 := openCache(t, path)
	defer pc2.Close()
	if pc2.Len() != 1 {
		t.Fatalf("reloaded Len = %d, want 1", pc2.Len())
	}
	res, err, ok = pc2.Namespace(AppNamespace("tpch/Q3", 1)).Get(fp)
	if !ok || err != nil {
		t.Fatalf("reloaded get: ok=%v err=%v", ok, err)
	}
	resultsEqual(t, "reloaded", res, want)
}

func TestProbeCacheErrorRoundTrip(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace("app/x#seed=1")
	fpNoTable := sqldb.Fingerprint{1}
	fpApp := sqldb.Fingerprint{2}

	ns.Put(fpNoTable, nil, fmt.Errorf("exec: %w: part", sqldb.ErrNoSuchTable))
	ns.Put(fpApp, nil, errors.New("application rejected the instance"))
	pc.Close()

	pc2 := openCache(t, path)
	defer pc2.Close()
	ns2 := pc2.Namespace("app/x#seed=1")
	res, err, ok := ns2.Get(fpNoTable)
	if !ok || res != nil {
		t.Fatalf("ok=%v res=%v", ok, res)
	}
	if !errors.Is(err, sqldb.ErrNoSuchTable) {
		t.Fatalf("classification lost across restart: %v", err)
	}
	if want := fmt.Sprintf("exec: %v: part", sqldb.ErrNoSuchTable); err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
	_, err, ok = ns2.Get(fpApp)
	if !ok || err == nil || errors.Is(err, sqldb.ErrNoSuchTable) {
		t.Fatalf("app error mangled: ok=%v err=%v", ok, err)
	}
	if err.Error() != "application rejected the instance" {
		t.Fatalf("message = %q", err.Error())
	}
}

func TestProbeCacheNamespacesAreDisjoint(t *testing.T) {
	pc := openCache(t, cachePath(t))
	defer pc.Close()
	fp := sqldb.Fingerprint{42}
	a := pc.Namespace(AppNamespace("enki/posts_by_tag", 1))
	b := pc.Namespace(AppNamespace("enki/posts_by_tag", 2)) // different seed
	a.Put(fp, sampleResult(), nil)
	if _, _, ok := b.Get(fp); ok {
		t.Fatal("namespaces leak: same fingerprint visible across seeds")
	}
	if _, _, ok := a.Get(fp); !ok {
		t.Fatal("own namespace missed")
	}
}

func TestProbeCachePutIsIdempotent(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace("n")
	fp := sqldb.Fingerprint{5}
	want := sampleResult()
	ns.Put(fp, want, nil)
	once, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ns.Put(fp, nil, errors.New("second writer must lose"))
	twice, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if twice.Size() != once.Size() {
		t.Fatalf("re-put appended %d bytes, want none", twice.Size()-once.Size())
	}
	res, err, ok := ns.Get(fp)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	resultsEqual(t, "first-write-wins", res, want)
	pc.Close()

	pc2 := openCache(t, path)
	defer pc2.Close()
	if pc2.Len() != 1 {
		t.Fatalf("Len = %d after duplicate puts, want 1", pc2.Len())
	}
}

func TestProbeCacheTornTailTruncated(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	pc.Namespace("n").Put(sqldb.Fingerprint{1}, sampleResult(), nil)
	pc.Close()
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: garbage partial frame at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0xFF, 0x01})
	f.Close()

	pc2 := openCache(t, path)
	defer pc2.Close()
	if pc2.Len() != 1 {
		t.Fatalf("Len = %d after torn tail, want 1", pc2.Len())
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != intact.Size() {
		t.Fatalf("torn bytes survive: %d != %d", after.Size(), intact.Size())
	}
	if _, _, ok := pc2.Namespace("n").Get(sqldb.Fingerprint{1}); !ok {
		t.Fatal("intact record lost during tail recovery")
	}
}

func TestProbeCacheDegradesToReadOnly(t *testing.T) {
	pc := openCache(t, cachePath(t))
	ns := pc.Namespace("n")
	ns.Put(sqldb.Fingerprint{1}, sampleResult(), nil)
	// Yank the log handle: the next append must fail, the cache must
	// keep serving memory hits, and Close must surface the failure.
	pc.f.Close()
	ns.Put(sqldb.Fingerprint{2}, nil, nil)
	if pc.err == nil {
		t.Fatal("append failure not recorded")
	}
	if _, _, ok := ns.Get(sqldb.Fingerprint{1}); !ok {
		t.Fatal("memory hit lost after degrade")
	}
	if err := pc.Close(); err == nil {
		t.Fatal("Close swallowed the sticky append error")
	}
}

func TestProbeCacheNilReceiverClose(t *testing.T) {
	var pc *ProbeCache
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppNamespaceFormat(t *testing.T) {
	if got := AppNamespace("tpch/Q3", 7); got != "app/tpch/Q3#seed=7" {
		t.Fatalf("AppNamespace = %q", got)
	}
}

// TestCrashRecoveryProperty cuts a probe-cache log at random byte
// offsets — a crash mid-append can leave any prefix on disk — and
// reopens each cut. Recovery must keep exactly the records whose
// frames lie wholly before the cut, with their outcomes intact,
// truncate the torn remainder, and append new records after the last
// intact one so they survive the next reopen. A flipped byte inside a
// record must drop that record and everything after it.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace("n")

	type outcome struct {
		res *sqldb.Result
		err error
	}
	var outcomes []outcome
	var ends []int64 // log size after each record
	for i := 0; i < 24; i++ {
		var o outcome
		switch rng.Intn(4) {
		case 0:
			o.err = fmt.Errorf("exec: %w: t%d", sqldb.ErrNoSuchTable, i)
		case 1:
			o.err = fmt.Errorf("application error %d", i)
		default:
			rows := make([]sqldb.Row, rng.Intn(6))
			for r := range rows {
				rows[r] = sqldb.Row{sqldb.NewInt(rng.Int63()), sqldb.NewText(strings.Repeat("x", rng.Intn(40)))}
				if rng.Intn(5) == 0 {
					rows[r][1] = sqldb.NewNull(sqldb.TText)
				}
			}
			o.res = sqldb.RestoreResult([]string{"k", "v"}, rows, rng.Intn(2) == 0)
		}
		ns.Put(sqldb.Fingerprint{byte(i)}, o.res, o.err)
		outcomes = append(outcomes, o)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// reopen writes data as the whole log, recovers it and checks that
	// exactly the first want records survive.
	reopen := func(ctx string, data []byte, want int) {
		t.Helper()
		cut := filepath.Join(t.TempDir(), "probecache.log")
		if err := os.WriteFile(cut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pc := openCache(t, cut)
		if pc.Len() != want {
			t.Fatalf("%s: Len = %d, want %d", ctx, pc.Len(), want)
		}
		var good int64
		if want > 0 {
			good = ends[want-1]
		}
		if fi, err := os.Stat(cut); err != nil || fi.Size() != good {
			t.Fatalf("%s: recovered log is %v bytes (err %v), want %d", ctx, fi.Size(), err, good)
		}
		ns := pc.Namespace("n")
		for i := 0; i < want; i++ {
			res, err, ok := ns.Get(sqldb.Fingerprint{byte(i)})
			if !ok {
				t.Fatalf("%s: record %d lost", ctx, i)
			}
			resultsEqual(t, fmt.Sprintf("%s record %d", ctx, i), res, outcomes[i].res)
			if (err == nil) != (outcomes[i].err == nil) ||
				err != nil && (err.Error() != outcomes[i].err.Error() ||
					errors.Is(err, sqldb.ErrNoSuchTable) != errors.Is(outcomes[i].err, sqldb.ErrNoSuchTable)) {
				t.Fatalf("%s: record %d error %v, want %v", ctx, i, err, outcomes[i].err)
			}
		}
		// A record appended after recovery lands on the intact prefix.
		fresh := sqldb.Fingerprint{0xFF}
		ns.Put(fresh, nil, errors.New("after recovery"))
		if err := pc.Close(); err != nil {
			t.Fatal(err)
		}
		pc = openCache(t, cut)
		defer pc.Close()
		if pc.Len() != want+1 {
			t.Fatalf("%s: Len = %d after post-recovery append, want %d", ctx, pc.Len(), want+1)
		}
		if _, _, ok := pc.Namespace("n").Get(fresh); !ok {
			t.Fatalf("%s: post-recovery append lost", ctx)
		}
	}

	// complete counts the records wholly inside the first n bytes.
	complete := func(n int64) int {
		k := 0
		for k < len(ends) && ends[k] <= n {
			k++
		}
		return k
	}
	cuts := []int64{0, int64(len(log))}
	for _, end := range ends {
		cuts = append(cuts, end-1, end, end+1)
	}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, rng.Int63n(int64(len(log))))
	}
	for _, n := range cuts {
		if n > int64(len(log)) {
			continue
		}
		reopen(fmt.Sprintf("cut at %d", n), log[:n], complete(n))
	}

	for i := 0; i < 10; i++ {
		rec := rng.Intn(len(ends))
		start := int64(0)
		if rec > 0 {
			start = ends[rec-1]
		}
		off := start + rng.Int63n(ends[rec]-start)
		bad := append([]byte(nil), log...)
		bad[off] ^= 0x5A
		reopen(fmt.Sprintf("flip at %d", off), bad, rec)
	}
}
