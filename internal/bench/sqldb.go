package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/tpch"
)

// ---------------------------------------------------------------- E15

// EngineRow is one tree-vs-vector engine measurement: a query-shape
// microbenchmark or an end-to-end extraction.
type EngineRow struct {
	Case        string
	Tree        time.Duration
	Vector      time.Duration
	Speedup     float64
	IndexBuilds int64
	IndexHits   int64
	RangeBuilds int64
	RangeHits   int64
	JoinReuses  int64
	// SQLIdentical: e2e cases — extracted SQL byte-identical across
	// engines; microbenchmarks — rendered results byte-identical.
	SQLIdentical bool
}

// SqldbEngine measures the vectorized, index-assisted execution
// engine (PR 7, extended PR 10) against the tree-walking oracle:
// query-shape microbenchmarks (point lookup, Q1-style aggregation,
// top-K ordering, advised BETWEEN range probes — the shapes
// minimization hammers on), then full TPC-H extractions under both
// exec modes. The extracted SQL must be byte-identical; only the
// wall clock and the engine counters may differ.
func SqldbEngine(w io.Writer, opt Options) ([]EngineRow, error) {
	var out []EngineRow
	tbl := &TextTable{
		Title:  "Execution Engine — tree-walking oracle vs vectorized+indexed (PR 7)",
		Header: []string{"case", "tree_ms", "vector_ms", "speedup", "index_hits", "range_hits", "join_reuse", "sql_identical"},
	}

	micro, err := pointLookupMicrobench(opt)
	if err != nil {
		return nil, err
	}
	out = append(out, micro)
	tbl.Add(micro.Case, ms(micro.Tree), ms(micro.Vector),
		fmt.Sprintf("%.2f", micro.Speedup), micro.IndexHits, micro.RangeHits, micro.JoinReuses, micro.SQLIdentical)

	for _, mk := range []func(Options) (microbenchSpec, error){
		groupAggSpec, topKSpec, rangeProbeSpec,
	} {
		spec, err := mk(opt)
		if err != nil {
			return nil, err
		}
		row, err := runEngineMicrobench(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		tbl.Add(row.Case, ms(row.Tree), ms(row.Vector), fmt.Sprintf("%.2f", row.Speedup),
			row.IndexHits, row.RangeHits, row.JoinReuses, row.SQLIdentical)
	}

	scale := tpch.Scale100GB
	if opt.Quick {
		scale = tpch.ScaleTiny * 4
	}
	queries := tpch.HiddenQueries()
	db := tpch.NewDatabase(scale, opt.Seed)
	if err := tpch.PlantWitnesses(db, queries); err != nil {
		return nil, err
	}
	for _, name := range []string{"Q3", "Q6", "Q10"} {
		exe := app.MustSQLExecutable(name, queries[name])

		treeCfg := core.DefaultConfig()
		treeCfg.Seed = opt.Seed
		treeCfg.ExecMode = "tree"
		treeExt, err := core.Extract(exe, db, treeCfg)
		if err != nil {
			return nil, fmt.Errorf("%s under tree engine: %w", name, err)
		}

		vecCfg := core.DefaultConfig()
		vecCfg.Seed = opt.Seed
		vecCfg.ExecMode = "vector"
		vecExt, err := core.Extract(exe, db, vecCfg)
		if err != nil {
			return nil, fmt.Errorf("%s under vector engine: %w", name, err)
		}

		row := EngineRow{
			Case:         "extract/" + name,
			Tree:         treeExt.Stats.Total,
			Vector:       vecExt.Stats.Total,
			Speedup:      float64(treeExt.Stats.Total) / float64(vecExt.Stats.Total),
			IndexBuilds:  vecExt.Stats.IndexBuilds,
			IndexHits:    vecExt.Stats.IndexHits,
			RangeBuilds:  vecExt.Stats.RangeBuilds,
			RangeHits:    vecExt.Stats.RangeHits,
			JoinReuses:   vecExt.Stats.JoinBuildsReused,
			SQLIdentical: treeExt.SQL == vecExt.SQL,
		}
		out = append(out, row)
		tbl.Add(row.Case, ms(row.Tree), ms(row.Vector), fmt.Sprintf("%.2f", row.Speedup),
			row.IndexHits, row.RangeHits, row.JoinReuses, row.SQLIdentical)
	}

	tbl.Note("contract: byte-identical SQL under both engines; target >=3x on point lookups, >=1.5x end to end")
	tbl.Render(w)
	return out, nil
}

// pointLookupMicrobench times repeated point-lookup probes — the
// dominant query shape of predicate minimization — under both
// engines on one indexed-size table.
func pointLookupMicrobench(opt Options) (EngineRow, error) {
	rows, iters := 20000, 3000
	if opt.Quick {
		rows, iters = 5000, 600
	}
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "pt",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt},
			{Name: "grp", Type: sqldb.TInt},
			{Name: "payload", Type: sqldb.TText},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		return EngineRow{}, err
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("pt",
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i%97)),
			sqldb.NewText(fmt.Sprintf("p-%06d", i))); err != nil {
			return EngineRow{}, err
		}
	}
	stmts := make([]*sqldb.SelectStmt, 64)
	for k := range stmts {
		stmt, err := sqlparser.Parse(fmt.Sprintf(
			"select payload from pt where id = %d and grp >= 0", k*131%rows))
		if err != nil {
			return EngineRow{}, err
		}
		stmts[k] = stmt
	}
	return runEngineMicrobench(microbenchSpec{
		name:  fmt.Sprintf("point-lookup/%drows", rows),
		db:    db,
		stmts: stmts,
		iters: iters,
	})
}

// microbenchSpec describes one tree-vs-vector query-shape benchmark:
// a prepared database, the statements to cycle through, and how many
// executions to time per engine.
type microbenchSpec struct {
	name  string
	db    *sqldb.Database
	stmts []*sqldb.SelectStmt
	iters int
	// clone executes against a fresh clone per engine, mirroring the
	// minimizer's advise-then-clone discipline: index advice on the
	// parent pre-installs shared range/hash indexes on vector-mode
	// clones, so probe cost amortizes across the whole clone fleet.
	clone bool
}

// runEngineMicrobench times spec.iters executions under each engine
// and cross-checks that every statement renders byte-identical
// results in both modes (reported as SQLIdentical).
func runEngineMicrobench(spec microbenchSpec) (EngineRow, error) {
	ctx := context.Background()
	run := func(mode sqldb.ExecMode) (time.Duration, string, error) {
		spec.db.SetExecMode(mode)
		target := spec.db
		if spec.clone {
			target = spec.db.Clone()
		}
		start := time.Now()
		for i := 0; i < spec.iters; i++ {
			if _, err := target.Execute(ctx, spec.stmts[i%len(spec.stmts)]); err != nil {
				return 0, "", err
			}
		}
		dur := time.Since(start)
		var digest strings.Builder
		for _, stmt := range spec.stmts {
			res, err := target.Execute(ctx, stmt)
			if err != nil {
				return 0, "", err
			}
			digest.WriteString(res.String())
			digest.WriteByte('\n')
		}
		return dur, digest.String(), nil
	}
	before := spec.db.EngineCounters()
	treeTime, treeDigest, err := run(sqldb.ExecTree)
	if err != nil {
		return EngineRow{}, fmt.Errorf("%s under tree engine: %w", spec.name, err)
	}
	vecTime, vecDigest, err := run(sqldb.ExecVector)
	if err != nil {
		return EngineRow{}, fmt.Errorf("%s under vector engine: %w", spec.name, err)
	}
	after := spec.db.EngineCounters()
	return EngineRow{
		Case:         spec.name,
		Tree:         treeTime,
		Vector:       vecTime,
		Speedup:      float64(treeTime) / float64(vecTime),
		IndexBuilds:  after.IndexBuilds - before.IndexBuilds,
		IndexHits:    after.IndexHits - before.IndexHits,
		RangeBuilds:  after.RangeBuilds - before.RangeBuilds,
		RangeHits:    after.RangeHits - before.RangeHits,
		JoinReuses:   after.JoinReuses - before.JoinReuses,
		SQLIdentical: treeDigest == vecDigest,
	}, nil
}

// groupAggSpec builds a TPC-H Q1-shaped workload: a wide fact table
// folded into a handful of groups under the full aggregate battery.
// This is the aggregation-dominated case the columnar accumulators
// (agg_vector.go) exist for.
func groupAggSpec(opt Options) (microbenchSpec, error) {
	rows, iters := 30000, 40
	if opt.Quick {
		rows, iters = 6000, 10
	}
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "ln",
		Columns: []sqldb.Column{
			{Name: "flag", Type: sqldb.TText},
			{Name: "stat", Type: sqldb.TText},
			{Name: "qty", Type: sqldb.TInt},
			{Name: "price", Type: sqldb.TFloat},
			{Name: "disc", Type: sqldb.TFloat},
		},
	}); err != nil {
		return microbenchSpec{}, err
	}
	flags, stats := []string{"A", "N", "R"}, []string{"F", "O"}
	for i := 0; i < rows; i++ {
		if err := db.Insert("ln",
			sqldb.NewText(flags[i%3]), sqldb.NewText(stats[i%2]),
			sqldb.NewInt(int64(i%50)+1),
			sqldb.NewFloat(float64(i%997)*1.01),
			sqldb.NewFloat(float64(i%10)/100)); err != nil {
			return microbenchSpec{}, err
		}
	}
	stmt, err := sqlparser.Parse(
		"select flag, stat, count(qty), sum(qty), avg(price), min(disc), max(price) " +
			"from ln group by flag, stat order by flag, stat")
	if err != nil {
		return microbenchSpec{}, err
	}
	return microbenchSpec{
		name:  fmt.Sprintf("group-agg/%drows", rows),
		db:    db,
		stmts: []*sqldb.SelectStmt{stmt},
		iters: iters,
	}, nil
}

// topKSpec builds an ORDER BY + LIMIT workload over heavily tied sort
// keys: the vector engine's bounded top-K heap versus the tree
// engine's full sort-then-truncate.
func topKSpec(opt Options) (microbenchSpec, error) {
	rows, iters := 30000, 40
	if opt.Quick {
		rows, iters = 6000, 10
	}
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "tk",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt},
			{Name: "grp", Type: sqldb.TInt},
			{Name: "w", Type: sqldb.TText},
		},
	}); err != nil {
		return microbenchSpec{}, err
	}
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i := 0; i < rows; i++ {
		if err := db.Insert("tk",
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i%7)),
			sqldb.NewText(words[i%len(words)])); err != nil {
			return microbenchSpec{}, err
		}
	}
	stmt, err := sqlparser.Parse("select grp, w, id from tk order by grp desc, w limit 10")
	if err != nil {
		return microbenchSpec{}, err
	}
	return microbenchSpec{
		name:  fmt.Sprintf("order-limit/%drows", rows),
		db:    db,
		stmts: []*sqldb.SelectStmt{stmt},
		iters: iters,
	}, nil
}

// rangeProbeSpec builds the advised-BETWEEN workload: the probed
// column sits behind a non-indexable (but total) leading predicate,
// so only the minimizer-style AdviseIndexes call makes the range
// index eligible. Executions run against a clone, so the vector
// engine answers every probe from the shared pre-built range index
// while the tree engine re-scans the table each time.
func rangeProbeSpec(opt Options) (microbenchSpec, error) {
	rows, iters := 20000, 2000
	if opt.Quick {
		rows, iters = 5000, 400
	}
	db := sqldb.NewDatabase()
	if err := db.CreateTable(sqldb.TableSchema{
		Name: "rp",
		Columns: []sqldb.Column{
			{Name: "id", Type: sqldb.TInt},
			{Name: "w", Type: sqldb.TInt},
			{Name: "v", Type: sqldb.TInt},
			{Name: "payload", Type: sqldb.TText},
		},
		PrimaryKey: []string{"id"},
	}); err != nil {
		return microbenchSpec{}, err
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("rp",
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i%7)),
			sqldb.NewInt(int64(i%1000)),
			sqldb.NewText(fmt.Sprintf("r-%06d", i))); err != nil {
			return microbenchSpec{}, err
		}
	}
	if err := db.AdviseIndexes(sqldb.IndexHint{Table: "rp", Column: "v"}); err != nil {
		return microbenchSpec{}, err
	}
	stmts := make([]*sqldb.SelectStmt, 64)
	for k := range stmts {
		lo := (k * 37) % 990
		stmt, err := sqlparser.Parse(fmt.Sprintf(
			"select id from rp where w <> 3 and v between %d and %d", lo, lo+9))
		if err != nil {
			return microbenchSpec{}, err
		}
		stmts[k] = stmt
	}
	return microbenchSpec{
		name:  fmt.Sprintf("between-probe/%drows", rows),
		db:    db,
		stmts: stmts,
		iters: iters,
		clone: true,
	}, nil
}
