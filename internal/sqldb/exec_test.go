package sqldb_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
)

// miniDB builds a three-table warehouse fixture:
//
//	customer(c_custkey PK, c_name, c_mktsegment, c_acctbal)
//	orders(o_orderkey PK, o_custkey FK, o_orderdate, o_totalprice, o_shippriority)
//	lineitem(l_orderkey FK, l_linenumber, l_extendedprice, l_discount, l_shipdate)
func miniDB(t *testing.T) *sqldb.Database {
	t.Helper()
	db := sqldb.NewDatabase()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable(sqldb.TableSchema{
		Name: "customer",
		Columns: []sqldb.Column{
			{Name: "c_custkey", Type: sqldb.TInt},
			{Name: "c_name", Type: sqldb.TText},
			{Name: "c_mktsegment", Type: sqldb.TText, MaxLen: 10},
			{Name: "c_acctbal", Type: sqldb.TFloat, Precision: 2},
		},
		PrimaryKey: []string{"c_custkey"},
	}))
	must(db.CreateTable(sqldb.TableSchema{
		Name: "orders",
		Columns: []sqldb.Column{
			{Name: "o_orderkey", Type: sqldb.TInt},
			{Name: "o_custkey", Type: sqldb.TInt},
			{Name: "o_orderdate", Type: sqldb.TDate},
			{Name: "o_totalprice", Type: sqldb.TFloat, Precision: 2},
			{Name: "o_shippriority", Type: sqldb.TInt},
		},
		PrimaryKey:  []string{"o_orderkey"},
		ForeignKeys: []sqldb.ForeignKey{{Column: "o_custkey", RefTable: "customer", RefColumn: "c_custkey"}},
	}))
	must(db.CreateTable(sqldb.TableSchema{
		Name: "lineitem",
		Columns: []sqldb.Column{
			{Name: "l_orderkey", Type: sqldb.TInt},
			{Name: "l_linenumber", Type: sqldb.TInt},
			{Name: "l_extendedprice", Type: sqldb.TFloat, Precision: 2},
			{Name: "l_discount", Type: sqldb.TFloat, Precision: 2},
			{Name: "l_shipdate", Type: sqldb.TDate},
		},
		ForeignKeys: []sqldb.ForeignKey{{Column: "l_orderkey", RefTable: "orders", RefColumn: "o_orderkey"}},
	}))

	i, f, s, d := sqldb.NewInt, sqldb.NewFloat, sqldb.NewText, sqldb.MustDate
	must(db.Insert("customer", i(1), s("alice"), s("BUILDING"), f(100.50)))
	must(db.Insert("customer", i(2), s("bob"), s("AUTOMOBILE"), f(-50.25)))
	must(db.Insert("customer", i(3), s("carol"), s("BUILDING"), f(900.00)))
	must(db.Insert("orders", i(10), i(1), d("1995-03-01"), f(1000), i(0)))
	must(db.Insert("orders", i(11), i(2), d("1995-03-10"), f(2000), i(1)))
	must(db.Insert("orders", i(12), i(3), d("1995-04-01"), f(3000), i(0)))
	must(db.Insert("orders", i(13), i(1), d("1995-02-01"), f(500), i(2)))
	must(db.Insert("lineitem", i(10), i(1), f(100), f(0.1), d("1995-03-20")))
	must(db.Insert("lineitem", i(10), i(2), f(200), f(0.0), d("1995-03-25")))
	must(db.Insert("lineitem", i(11), i(1), f(300), f(0.2), d("1995-03-18")))
	must(db.Insert("lineitem", i(12), i(1), f(400), f(0.05), d("1995-04-10")))
	must(db.Insert("lineitem", i(13), i(1), f(50), f(0.0), d("1995-02-15")))
	return db
}

func run(t *testing.T, db *sqldb.Database, sql string) *sqldb.Result {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := db.Execute(context.Background(), stmt)
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	return res
}

func TestExecuteSimpleScan(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, "select c_name from customer")
	if res.RowCount() != 3 {
		t.Fatalf("got %d rows, want 3", res.RowCount())
	}
	if res.Columns[0] != "c_name" {
		t.Errorf("column name %q", res.Columns[0])
	}
}

func TestExecuteFilterComparisons(t *testing.T) {
	db := miniDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"select c_custkey from customer where c_acctbal > 0", 2},
		{"select c_custkey from customer where c_acctbal >= 100.50", 2},
		{"select c_custkey from customer where c_acctbal = 100.50", 1},
		{"select c_custkey from customer where c_acctbal < 0", 1},
		{"select c_custkey from customer where c_acctbal between 0 and 200", 1},
		{"select c_custkey from customer where c_mktsegment = 'BUILDING'", 2},
		{"select c_custkey from customer where c_mktsegment <> 'BUILDING'", 1},
		{"select o_orderkey from orders where o_orderdate <= date '1995-03-10'", 3},
		{"select c_custkey from customer where c_name like '%o%'", 2},
		{"select c_custkey from customer where c_name like '_lice'", 1},
		{"select c_custkey from customer where c_name not like '%o%'", 1},
		{"select c_custkey from customer where c_acctbal > 0 and c_mktsegment = 'BUILDING'", 2},
		{"select c_custkey from customer where c_acctbal < 0 or c_mktsegment = 'BUILDING'", 3},
		{"select c_custkey from customer where not (c_mktsegment = 'BUILDING')", 1},
	}
	for _, c := range cases {
		if got := run(t, db, c.sql).RowCount(); got != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, got, c.want)
		}
	}
}

func TestExecuteEquiJoin(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, `select c_name, o_orderkey from customer, orders where c_custkey = o_custkey`)
	if res.RowCount() != 4 {
		t.Fatalf("join cardinality %d, want 4", res.RowCount())
	}
	res = run(t, db, `
		select c_name, l_extendedprice from customer, orders, lineitem
		where c_custkey = o_custkey and o_orderkey = l_orderkey and c_mktsegment = 'BUILDING'`)
	if res.RowCount() != 4 {
		t.Fatalf("3-way join for BUILDING: %d rows, want 4", res.RowCount())
	}
}

func TestExecuteCrossJoin(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, "select c_custkey, o_orderkey from customer, orders")
	if res.RowCount() != 12 {
		t.Fatalf("cross join %d rows, want 12", res.RowCount())
	}
}

func TestExecuteGroupByAggregates(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, `
		select o_custkey, count(*) as cnt, sum(o_totalprice) as total, avg(o_totalprice) as m,
		       min(o_orderdate) as lo, max(o_orderdate) as hi
		from orders group by o_custkey order by o_custkey`)
	if res.RowCount() != 3 {
		t.Fatalf("got %d groups, want 3", res.RowCount())
	}
	// customer 1 has orders 10 (1000) and 13 (500).
	row := res.Rows[0]
	if row[0].I != 1 || row[1].I != 2 {
		t.Fatalf("group row: %v", row)
	}
	if row[2].AsFloat() != 1500 || row[3].AsFloat() != 750 {
		t.Errorf("sum/avg: %v %v", row[2], row[3])
	}
	if row[4].String() != "1995-02-01" || row[5].String() != "1995-03-01" {
		t.Errorf("min/max date: %v %v", row[4], row[5])
	}
}

func TestExecuteComputedProjection(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, `
		select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue
		from lineitem group by l_orderkey order by revenue desc`)
	if res.RowCount() != 4 {
		t.Fatalf("got %d rows", res.RowCount())
	}
	// order 12: 400*0.95 = 380; order 10: 100*0.9 + 200 = 290.
	if res.Rows[0][0].I != 12 || res.Rows[0][1].AsFloat() != 380 {
		t.Errorf("top row %v", res.Rows[0])
	}
	if res.Rows[1][0].I != 10 || res.Rows[1][1].AsFloat() != 290 {
		t.Errorf("second row %v", res.Rows[1])
	}
}

func TestExecuteHaving(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, `
		select o_custkey, sum(o_totalprice) as total
		from orders group by o_custkey having sum(o_totalprice) >= 2000 order by o_custkey`)
	if res.RowCount() != 2 {
		t.Fatalf("having kept %d groups, want 2", res.RowCount())
	}
	if res.Rows[0][0].I != 2 || res.Rows[1][0].I != 3 {
		t.Errorf("groups: %v", res.Rows)
	}
}

func TestExecuteOrderByMultiKeyAndLimit(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, `
		select o_shippriority, o_orderkey from orders
		order by o_shippriority desc, o_orderkey asc limit 3`)
	if res.RowCount() != 3 {
		t.Fatalf("limit not applied: %d rows", res.RowCount())
	}
	want := [][2]int64{{2, 13}, {1, 11}, {0, 10}}
	for i, w := range want {
		if res.Rows[i][0].I != w[0] || res.Rows[i][1].I != w[1] {
			t.Errorf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

func TestExecuteOrderByAlias(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, `
		select c_custkey as id, c_acctbal as bal from customer order by bal desc`)
	if res.Rows[0][0].I != 3 {
		t.Errorf("order by alias: top row %v", res.Rows[0])
	}
}

func TestExecuteUngroupedAggregate(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, "select count(*) as n, sum(o_totalprice) as s from orders")
	if res.RowCount() != 1 || res.Rows[0][0].I != 4 {
		t.Fatalf("ungrouped agg: %v", res.Rows)
	}
	if !res.Populated() {
		t.Error("non-empty aggregate should be populated")
	}
	// Empty input: SQL yields one row, but Populated() must be false.
	res = run(t, db, "select count(*) as n from orders where o_totalprice > 99999")
	if res.RowCount() != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("empty-input count: %v", res.Rows)
	}
	if res.Populated() {
		t.Error("ungrouped aggregate over empty input must not count as populated")
	}
}

func TestExecuteCountDistinct(t *testing.T) {
	db := miniDB(t)
	res := run(t, db, "select count(distinct o_custkey) as n from orders")
	if res.Rows[0][0].I != 3 {
		t.Errorf("count distinct = %v, want 3", res.Rows[0][0])
	}
}

func TestExecuteNullHandling(t *testing.T) {
	db := miniDB(t)
	tbl, err := db.Table("customer")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Set(0, "c_acctbal", sqldb.NewNull(sqldb.TFloat)); err != nil {
		t.Fatal(err)
	}
	// NULL never satisfies comparisons.
	if got := run(t, db, "select c_custkey from customer where c_acctbal > -100000").RowCount(); got != 2 {
		t.Errorf("NULL row leaked through filter: %d rows", got)
	}
	if got := run(t, db, "select c_custkey from customer where c_acctbal is null").RowCount(); got != 1 {
		t.Errorf("is null: %d rows", got)
	}
	if got := run(t, db, "select c_custkey from customer where c_acctbal is not null").RowCount(); got != 2 {
		t.Errorf("is not null: %d rows", got)
	}
	// Aggregates skip NULLs; count(*) does not.
	res := run(t, db, "select count(*) as a, count(c_acctbal) as b, sum(c_acctbal) as s from customer")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].I != 2 {
		t.Errorf("count behaviour with NULLs: %v", res.Rows[0])
	}
	if res.Rows[0][2].AsFloat() != 849.75 {
		t.Errorf("sum with NULLs: %v", res.Rows[0][2])
	}
	// NULL join keys never match.
	otbl, _ := db.Table("orders")
	if err := otbl.Set(0, "o_custkey", sqldb.NewNull(sqldb.TInt)); err != nil {
		t.Fatal(err)
	}
	if got := run(t, db, "select o_orderkey from customer, orders where c_custkey = o_custkey").RowCount(); got != 3 {
		t.Errorf("NULL join key matched: %d rows", got)
	}
}

func TestExecuteMissingTableError(t *testing.T) {
	db := miniDB(t)
	stmt := sqlparser.MustParse("select x from nosuch")
	_, err := db.Execute(context.Background(), stmt)
	if !errors.Is(err, sqldb.ErrNoSuchTable) {
		t.Fatalf("want ErrNoSuchTable, got %v", err)
	}
}

func TestExecuteUnknownColumnError(t *testing.T) {
	db := miniDB(t)
	stmt := sqlparser.MustParse("select nope from customer")
	if _, err := db.Execute(context.Background(), stmt); err == nil {
		t.Fatal("unknown column should error")
	}
}

func TestExecuteAmbiguousColumnError(t *testing.T) {
	db := sqldb.NewDatabase()
	for _, n := range []string{"t1", "t2"} {
		if err := db.CreateTable(sqldb.TableSchema{
			Name:    n,
			Columns: []sqldb.Column{{Name: "x", Type: sqldb.TInt}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	stmt := sqlparser.MustParse("select x from t1, t2")
	if _, err := db.Execute(context.Background(), stmt); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguity error, got %v", err)
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name:    "big",
		Columns: []sqldb.Column{{Name: "x", Type: sqldb.TInt}},
	}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("big")
	for i := 0; i < 200000; i++ {
		tbl.MustInsert(sqldb.NewInt(int64(i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	stmt := sqlparser.MustParse("select x from big where x > 5")
	if _, err := db.Execute(ctx, stmt); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestExecuteOrderingDeterminism(t *testing.T) {
	db := miniDB(t)
	q := `select o_custkey, sum(o_totalprice) as s from orders group by o_custkey order by s desc`
	a := run(t, db, q)
	b := run(t, db, q)
	if a.Checksum() != b.Checksum() {
		t.Error("repeated execution should be deterministic")
	}
}

func TestResultComparisons(t *testing.T) {
	db := miniDB(t)
	asc := run(t, db, "select o_orderkey from orders order by o_orderkey asc")
	desc := run(t, db, "select o_orderkey from orders order by o_orderkey desc")
	if asc.EqualOrdered(desc) {
		t.Error("opposite orders should not be EqualOrdered")
	}
	if !asc.EqualUnordered(desc) {
		t.Error("same multiset should be EqualUnordered")
	}
	if asc.Checksum() == desc.Checksum() {
		t.Error("checksums should be position-dependent")
	}
}

func TestExecuteResidualJoinCycleEdge(t *testing.T) {
	// Join cycle: all three edges must hold even though only two are
	// used as hash keys.
	db := sqldb.NewDatabase()
	for _, n := range []string{"a", "b", "c"} {
		if err := db.CreateTable(sqldb.TableSchema{
			Name:    n,
			Columns: []sqldb.Column{{Name: n + "k", Type: sqldb.TInt}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"a", "b", "c"} {
		tbl, _ := db.Table(n)
		tbl.MustInsert(sqldb.NewInt(1))
		tbl.MustInsert(sqldb.NewInt(2))
	}
	// Break the cycle for one tuple in c.
	tbl, _ := db.Table("c")
	if err := tbl.Set(1, "ck", sqldb.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	res := run(t, db, "select ak from a, b, c where ak = bk and bk = ck and ak = ck")
	if res.RowCount() != 1 {
		t.Fatalf("cycle join: %d rows, want 1", res.RowCount())
	}
}

// TestExecModeKnob pins the mode surface: parsing, stringing, the
// database getter/setter and counter snapshots.
func TestExecModeKnob(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sqldb.ExecMode
		ok   bool
	}{
		{"", sqldb.ExecVector, true},
		{"vector", sqldb.ExecVector, true},
		{"tree", sqldb.ExecTree, true},
		{"columnar", sqldb.ExecVector, false},
	} {
		got, err := sqldb.ParseExecMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseExecMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if sqldb.ExecVector.String() != "vector" || sqldb.ExecTree.String() != "tree" {
		t.Fatalf("mode strings: %q/%q", sqldb.ExecVector, sqldb.ExecTree)
	}
	db := sqldb.NewDatabase()
	if db.ExecMode() != sqldb.ExecVector {
		t.Fatal("default mode is not vector")
	}
	db.SetExecMode(sqldb.ExecTree)
	if db.ExecMode() != sqldb.ExecTree {
		t.Fatal("SetExecMode did not take")
	}
	if db.Clone().ExecMode() != sqldb.ExecTree {
		t.Fatal("clone did not inherit the exec mode")
	}
	c := db.EngineCounters()
	if c.JoinBuilds != 0 || c.VectorQueries != 0 {
		t.Fatalf("fresh database has nonzero counters: %+v", c)
	}
}
