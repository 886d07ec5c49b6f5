package core

import (
	"context"

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
