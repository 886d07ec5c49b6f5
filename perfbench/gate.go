package main

import (
	"context"
	"errors"
	"fmt"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/sqldb"
	"unmasque/internal/sqlparser"
)

// instance names one generated D_I: an application and the seed of
// its data.
type instance struct {
	app  string
	seed int64
}

// verify is the correctness gate: it re-executes the extracted SQL text
// through sqldb on db, the instance it was extracted from, and compares
// the result with the application's own on db, as multisets and
// position by position on the ORDER BY columns. Extraction reads D_I
// but never writes it, so db may be the extraction's own input.
func verify(ctx context.Context, exe app.Executable, db *sqldb.Database, sql string) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return fmt.Errorf("gate: extracted SQL does not parse: %w", err)
	}
	want, err := exe.Run(ctx, db)
	if err != nil {
		return fmt.Errorf("gate: application fails on D_I: %w", err)
	}
	got, err := db.Execute(ctx, stmt)
	if err != nil {
		return fmt.Errorf("gate: extracted SQL fails on D_I: %w", err)
	}
	want, got = emptyIfUnpopulated(want), emptyIfUnpopulated(got)
	if !want.EqualUnordered(got) {
		return fmt.Errorf("gate: result differs from the application's on D_I (%d vs %d rows)",
			want.RowCount(), got.RowCount())
	}
	keys, err := orderKeys(stmt)
	if err != nil {
		return err
	}
	if len(keys) > 0 && !core.OrderedEquivalent(want, got, keys) {
		return fmt.Errorf("gate: ORDER BY sequence differs from the application's on D_I")
	}
	return nil
}

// emptyIfUnpopulated maps an unpopulated result (no rows, or the null
// row of an ungrouped aggregate over empty input) to an empty one, the
// convention the extraction checker compares under.
func emptyIfUnpopulated(r *sqldb.Result) *sqldb.Result {
	if r.Populated() {
		return r
	}
	return &sqldb.Result{Columns: r.Columns}
}

// orderKeys resolves each ORDER BY key of stmt to the output column it
// sorts on.
func orderKeys(stmt *sqldb.SelectStmt) ([]core.OrderItem, error) {
	var out []core.OrderItem
	for _, k := range stmt.OrderBy {
		name := k.Expr.String()
		idx := -1
		for i, it := range stmt.Items {
			if it.OutputName() == name || it.Expr.String() == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("gate: ORDER BY key %s names no output column", name)
		}
		out = append(out, core.OrderItem{OutputIndex: idx, OutputName: name, Desc: k.Desc})
	}
	return out, nil
}

// errIncorrect marks an extraction whose SQL failed the correctness
// gate.
var errIncorrect = errors.New("incorrect extraction")

// gate memoizes verdicts per (instance, SQL text): a deterministic
// application yields the same SQL on every repetition, so each
// distinct text is verified once per instance.
type gate map[instance]map[string]error

// check verifies sql as an extraction of the instance's hidden query;
// load supplies the application and the instance when the verdict is
// not known yet.
func (g gate) check(ctx context.Context, in instance, sql string, load func() (app.Executable, *sqldb.Database, error)) error {
	if err, ok := g[in][sql]; ok {
		return err
	}
	exe, db, err := load()
	if err == nil {
		err = verify(ctx, exe, db, sql)
	}
	if err != nil {
		err = fmt.Errorf("%w: %w", errIncorrect, err)
	}
	if g[in] == nil {
		g[in] = map[string]error{}
	}
	g[in][sql] = err
	return err
}
