package core

import (
	"context"
	"fmt"

	"unmasque/internal/app"
	"unmasque/internal/sqldb"
)

// FromClause runs only the from-clause phase of an extraction of exe
// on di and returns the detected T_E in catalog order.
func FromClause(ctx context.Context, exe app.Executable, di *sqldb.Database, cfg Config) ([]string, error) {
	s, err := newSession(ctx, exe, di, cfg)
	if err != nil {
		return nil, err
	}
	span := s.beginPhase("from-clause")
	err = s.extractFromClause()
	span.EndErr(err)
	s.endPhase("from-clause", err)
	return s.tables, err
}

// Check runs only the extraction checker (Section 5.5) with q standing
// in for the assembled Q_E: exe and q are compared on di, on the
// randomized instances and on the XData suite generated from q.
func Check(ctx context.Context, exe app.Executable, di *sqldb.Database, q *sqldb.SelectStmt, cfg Config) error {
	s, err := newSession(ctx, exe, di, cfg)
	if err != nil {
		return err
	}
	from := map[string]bool{}
	for _, t := range q.From {
		from[t] = true
	}
	for _, t := range di.TableNames() {
		if !from[t] {
			continue
		}
		tbl, err := di.Table(t)
		if err != nil {
			return err
		}
		s.tables = append(s.tables, t)
		s.schemas[t] = tbl.Schema.Clone()
	}
	ext := &Extraction{Query: q}
	for _, k := range q.OrderBy {
		name := k.Expr.String()
		idx := -1
		for i, it := range q.Items {
			if it.OutputName() == name || it.Expr.String() == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("order key %s names no output column", name)
		}
		ext.OrderBy = append(ext.OrderBy, OrderItem{OutputIndex: idx, OutputName: name, Desc: k.Desc})
	}
	span := s.beginPhase("checker")
	err = s.check(ext)
	span.EndErr(err)
	s.endPhase("checker", err)
	return err
}
