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
	Case       string
	Tree       time.Duration
	Vector     time.Duration
	Speedup    float64
	JoinReuses int64
	// SQLIdentical: e2e cases — extracted SQL byte-identical across
	// engines; microbenchmarks — rendered results byte-identical.
	SQLIdentical bool
}

// SqldbEngine measures the vectorized execution engine against the
// tree-walking oracle: query-shape microbenchmarks (Q1-style
// aggregation, top-K ordering), then full TPC-H extractions under
// both exec modes. The extracted SQL must be byte-identical; only the
// wall clock and the engine counters may differ.
func SqldbEngine(w io.Writer, opt Options) ([]EngineRow, error) {
	var out []EngineRow
	tbl := &TextTable{
		Title:  "Execution Engine — tree-walking oracle vs vectorized",
		Header: []string{"case", "tree_ms", "vector_ms", "speedup", "join_reuse", "sql_identical"},
	}

	for _, mk := range []func(Options) (microbenchSpec, error){groupAggSpec, topKSpec} {
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
			row.JoinReuses, row.SQLIdentical)
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
			JoinReuses:   vecExt.Stats.JoinBuildsReused,
			SQLIdentical: treeExt.SQL == vecExt.SQL,
		}
		out = append(out, row)
		tbl.Add(row.Case, ms(row.Tree), ms(row.Vector), fmt.Sprintf("%.2f", row.Speedup),
			row.JoinReuses, row.SQLIdentical)
	}

	tbl.Note("contract: byte-identical SQL under both engines; target >=1.5x end to end")
	tbl.Render(w)
	return out, nil
}

// microbenchSpec describes one tree-vs-vector query-shape benchmark:
// a prepared database, the statements to cycle through, and how many
// executions to time per engine.
type microbenchSpec struct {
	name  string
	db    *sqldb.Database
	stmts []*sqldb.SelectStmt
	iters int
}

// runEngineMicrobench times spec.iters executions under each engine
// and cross-checks that every statement renders byte-identical
// results in both modes (reported as SQLIdentical).
func runEngineMicrobench(spec microbenchSpec) (EngineRow, error) {
	ctx := context.Background()
	run := func(mode sqldb.ExecMode) (time.Duration, string, error) {
		spec.db.SetExecMode(mode)
		start := time.Now()
		for i := 0; i < spec.iters; i++ {
			if _, err := spec.db.Execute(ctx, spec.stmts[i%len(spec.stmts)]); err != nil {
				return 0, "", err
			}
		}
		dur := time.Since(start)
		var digest strings.Builder
		for _, stmt := range spec.stmts {
			res, err := spec.db.Execute(ctx, stmt)
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
