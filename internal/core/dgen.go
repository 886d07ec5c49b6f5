package core

import (
	"fmt"

	"unmasque/internal/sqldb"
)

// dgen describes one synthetic database instance of the generation
// pipeline (Section 5): per-table row counts plus explicit per-column
// value sequences. Unspecified columns receive defaults that keep the
// instance inside the s-value space: join-graph columns get the key
// value 1 in every row (so every join matches), and all other columns
// get their variant-0 s-value.
type dgen struct {
	rows map[string]int
	vals map[sqldb.ColRef][]sqldb.Value
}

// newDgen starts an instance description; every extracted table
// defaults to one row.
func (s *Session) newDgen() *dgen {
	return &dgen{rows: map[string]int{}, vals: map[sqldb.ColRef][]sqldb.Value{}}
}

// setRows fixes the row count of one table.
func (d *dgen) setRows(table string, n int) { d.rows[table] = n }

// set assigns the full value sequence of one column (must match the
// table's row count at materialization).
func (d *dgen) set(col sqldb.ColRef, vals ...sqldb.Value) {
	d.vals[col] = vals
}

// setConst assigns the same value to every row of the column.
func (d *dgen) setConst(col sqldb.ColRef, v sqldb.Value, n int) {
	vals := make([]sqldb.Value, n)
	for i := range vals {
		vals[i] = v
	}
	d.vals[col] = vals
}

// setComponentKeys assigns a key-value sequence to every column of a
// join component, table row counts permitting: a table whose row
// count equals len(keys) receives the full sequence; a table with
// fewer rows receives the prefix. This keeps joins along the
// component consistent by construction.
func (d *dgen) setComponentKeys(comp *joinComponent, keys []int64, rowsOf func(string) int) {
	for _, col := range comp.cols {
		n := rowsOf(col.Table)
		vals := make([]sqldb.Value, n)
		for i := 0; i < n; i++ {
			k := keys[i%len(keys)]
			if i < len(keys) {
				k = keys[i]
			}
			vals[i] = sqldb.NewInt(k)
		}
		d.vals[col] = vals
	}
}

// materialize builds the database instance: the schema of the silo
// with the described rows in the extracted tables (other tables stay
// empty — they are not referenced by the query). Each column's value
// source — its explicit sequence, the join key 1, or its default
// s-value — is resolved once per table, not once per cell.
func (s *Session) materialize(d *dgen) (*sqldb.Database, error) {
	db := s.silo.CloneSchema()
	for _, t := range s.tables {
		n := d.rows[t]
		if n == 0 {
			n = 1
		}
		tbl, err := db.Table(t)
		if err != nil {
			return nil, err
		}
		schema := s.schemas[t]
		seqs := make([][]sqldb.Value, len(schema.Columns))
		row := make([]sqldb.Value, len(schema.Columns))
		for ci, cdef := range schema.Columns {
			col := sqldb.ColRef{Table: t, Column: cdef.Name}
			if vals, ok := d.vals[col]; ok {
				if len(vals) == 0 {
					return nil, fmt.Errorf("dgen: column %s has %d values for %d rows", col, len(vals), n)
				}
				seqs[ci] = vals
				continue
			}
			if s.inJoinGraph(col) {
				row[ci] = sqldb.NewInt(1)
				continue
			}
			v, err := s.defaultValue(col)
			if err != nil {
				return nil, fmt.Errorf("dgen: %w", err)
			}
			row[ci] = v
		}
		// Insert copies row, so one buffer serves every row: constant
		// columns keep their value, sequenced ones are overwritten.
		for i := 0; i < n; i++ {
			for ci, vals := range seqs {
				if vals == nil {
					continue
				}
				if i >= len(vals) {
					return nil, fmt.Errorf("dgen: column %s has %d values for %d rows", sqldb.ColRef{Table: t, Column: schema.Columns[ci].Name}, len(vals), n)
				}
				row[ci] = vals[i]
			}
			if err := tbl.Insert(row...); err != nil {
				return nil, fmt.Errorf("dgen: %w", err)
			}
		}
	}
	return db, nil
}

// rowsOfFn adapts a dgen's row map into the lookup setComponentKeys
// wants.
func (d *dgen) rowsOfFn() func(string) int {
	return func(t string) int {
		if n, ok := d.rows[t]; ok && n > 0 {
			return n
		}
		return 1
	}
}
