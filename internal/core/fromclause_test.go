package core_test

// Tests of from-clause detection (Section 4.1): the group-tested T_E
// against a brute-force per-table rename oracle on every registered
// application, the probe budget on a wide catalog, timeouts treated
// as inconclusive, and cancellation between probes.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
	"unmasque/internal/workloads/job"
	"unmasque/internal/workloads/registry"
)

// perTableOracle decides T_E the way the paper states it: one rename
// probe per table, with a deadline no application here comes near.
func perTableOracle(t *testing.T, exe app.Executable, db *sqldb.Database) []string {
	t.Helper()
	var out []string
	for _, name := range db.TableNames() {
		probe := db.CloneShared()
		if err := probe.RenameTable(name, "oracle_tmp"); err != nil {
			t.Fatal(err)
		}
		_, err := app.RunCtx(context.Background(), exe, probe, time.Minute)
		switch {
		case errors.Is(err, sqldb.ErrNoSuchTable):
			out = append(out, name)
		case err != nil:
			t.Fatalf("oracle probe of %s: %v", name, err)
		}
	}
	return out
}

// TestFromClauseMatchesPerTableOracle: for every registered
// application, the group-tested T_E equals the per-table oracle's,
// for 1 and 4 workers.
func TestFromClauseMatchesPerTableOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is not short")
	}
	for _, name := range registry.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			exe, db, err := registry.Build(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := perTableOracle(t, exe, db)
			for _, workers := range []int{1, 4} {
				cfg := core.DefaultConfig()
				cfg.Workers = workers
				got, err := core.FromClause(context.Background(), exe, db, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("workers=%d: T_E %v, oracle %v", workers, got, want)
				}
			}
		})
	}
}

// TestFromClauseWideCatalog pins the probe budget on the schema-
// scaling shape (experiment E5): J11 over the JOB schema plus 1,000
// unread dummy tables.
func TestFromClauseWideCatalog(t *testing.T) {
	sql := job.HiddenQueries()["J11"]
	db := job.NewDatabase(job.ScaleTiny, 1)
	if err := job.PlantWitnesses(db, map[string]string{"J11": sql}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := db.CreateTable(sqldb.TableSchema{
			Name:       fmt.Sprintf("dummy_%04d", i),
			Columns:    []sqldb.Column{{Name: "id", Type: sqldb.TInt}, {Name: "payload", Type: sqldb.TText}},
			PrimaryKey: []string{"id"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	exe := app.MustSQLExecutable("J11", sql)
	cfg := core.DefaultConfig()
	cfg.Ledger = obs.NewLedger()
	got, err := core.FromClause(context.Background(), exe, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := perTableOracle(t, exe, db); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("T_E %v, oracle %v", got, want)
	}
	probes, clean := 0, 0
	for _, ev := range cfg.Ledger.Events() {
		if ev.Kind != obs.KindRename {
			continue
		}
		probes++
		if ev.Err == "" {
			clean++
		}
	}
	t.Logf("%d tables, |T_E|=%d: %d rename probes, %d clean runs", len(db.TableNames()), len(got), probes, clean)
	if probes > 40 || clean > 20 {
		t.Fatalf("%d rename probes (max 40), %d clean runs (max 20)", probes, clean)
	}
}

// slowReader is an imperative application that reads table first at
// once and, when first holds at least minRows rows, waits delay before
// it reads the other tables of its query: on the full instance its
// negative rename probes outlast the initial probe deadline.
func slowReader(sql, first string, minRows int, delay time.Duration) *app.ImperativeExecutable {
	stmt := sqlparser.MustParse(sql)
	return app.NewImperativeExecutable("slow_reader", func(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
		t, err := db.Table(first)
		if err != nil {
			return nil, err
		}
		if t.RowCount() >= minRows {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return db.Execute(ctx, stmt)
	}, sql)
}

// TestFromClauseTimeoutIsInconclusive: an application that reads
// orders 300 ms after customer outlasts the 250 ms probe deadline on
// every probe that leaves customer in place. The timeout must not
// clear orders; the escalated deadline sees its fault.
func TestFromClauseTimeoutIsInconclusive(t *testing.T) {
	db := warehouseDB(t, 300, 600, 1200)
	sql := "select c_name, o_totalprice from customer, orders where c_custkey = o_custkey"
	exe := slowReader(sql, "customer", 300, 300*time.Millisecond)
	cfg := core.DefaultConfig()
	cfg.Ledger = obs.NewLedger()
	ext, err := core.Extract(exe, db, cfg)
	if err != nil {
		t.Fatalf("extraction failed: %v", err)
	}
	if got := strings.Join(ext.Tables, ","); got != "customer,orders" {
		t.Fatalf("T_E %s, want customer,orders", got)
	}
	timeouts := 0
	for _, ev := range cfg.Ledger.Events() {
		if ev.Kind == obs.KindRename && ev.Err == app.ErrTimeout.Error() {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Fatal("no rename probe timed out; the test no longer exercises the escalation")
	}
}

// TestFromClauseTimeoutAtCapFails: a probe that still times out at
// the ExecTimeout cap fails the phase and names the undecided tables;
// every attempt is in the ledger.
func TestFromClauseTimeoutAtCapFails(t *testing.T) {
	db := warehouseDB(t, 10, 20, 40)
	exe := slowReader("select c_name from customer", "customer", 0, time.Hour)
	cfg := core.DefaultConfig()
	cfg.ProbeTimeout = 5 * time.Millisecond
	cfg.ExecTimeout = 20 * time.Millisecond
	cfg.Ledger = obs.NewLedger()
	_, err := core.Extract(exe, db, cfg)
	var xerr *core.ExtractionError
	if !errors.As(err, &xerr) || xerr.Module != "from-clause" {
		t.Fatalf("error %v, want a from-clause failure", err)
	}
	if !errors.Is(err, app.ErrTimeout) || !strings.Contains(err.Error(), "orders") {
		t.Fatalf("error %v does not report the undecided tables as timed out", err)
	}
	// customer,orders faults at once and so does customer; orders then
	// times out at 5, 10 and 20 ms.
	var attempts []string
	for _, ev := range cfg.Ledger.Events() {
		if ev.Table == "orders" {
			attempts = append(attempts, ev.Err)
		}
	}
	if len(attempts) != 3 {
		t.Fatalf("orders probed %d times (%v), want 3 escalating attempts", len(attempts), attempts)
	}
}

// cancelAfter runs the inner executable and cancels the extraction
// once it has completed n runs.
type cancelAfter struct {
	app.Executable
	n      int
	runs   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	res, err := c.Executable.Run(ctx, db)
	if c.runs++; c.runs == c.n {
		c.cancel()
	}
	return res, err
}

// TestFromClauseCancelBetweenProbes: a context cancelled during a
// rename probe stops the search before the next one.
func TestFromClauseCancelBetweenProbes(t *testing.T) {
	db := warehouseDB(t, 25, 50, 160)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exe := &cancelAfter{Executable: app.MustSQLExecutable("q", "select l_comment from lineitem"), n: 1, cancel: cancel}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	_, err := core.FromClause(ctx, exe, db, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if exe.runs != 1 {
		t.Fatalf("%d probes ran, want the search to stop after the cancelling one", exe.runs)
	}
}
