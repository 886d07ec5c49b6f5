package storage

import (
	"testing"

	"unmasque/internal/sqldb"
	"unmasque/internal/workloads/enki"
	"unmasque/internal/workloads/job"
	"unmasque/internal/workloads/rubis"
	"unmasque/internal/workloads/tpcds"
	"unmasque/internal/workloads/tpch"
	"unmasque/internal/workloads/wilos"
)

// TestWorkloadFingerprintParity is the byte-identity contract of the
// durable tier, checked over every corpus workload:
//
//   - each table's rows survive appendRow/decodeRow value for value,
//     and a database rebuilt from the decoded rows carries exactly the
//     fingerprint of the original;
//   - a Result holding each table's rows survives a probe-cache Put,
//     Close, reopen and Get with its digest unchanged.
//
// Extraction keyed on fingerprints and compared on result digests
// (the run memoizer, the probe ledger) is then oblivious to whether an
// outcome was computed or replayed from disk.
func TestWorkloadFingerprintParity(t *testing.T) {
	cases := []struct {
		name string
		mk   func(seed int64) *sqldb.Database
	}{
		{"tpch", func(seed int64) *sqldb.Database { return tpch.NewDatabase(tpch.ScaleTiny, seed) }},
		{"tpcds", func(seed int64) *sqldb.Database { return tpcds.NewDatabase(tpcds.ScaleTiny, seed) }},
		{"job", func(seed int64) *sqldb.Database { return job.NewDatabase(job.ScaleTiny, seed) }},
		{"enki", enki.NewDatabase},
		{"wilos", wilos.NewDatabase},
		{"rubis", rubis.NewDatabase},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := tc.mk(7)
			path := cachePath(t)
			pc := openCache(t, path)
			ns := pc.Namespace(AppNamespace(tc.name, 7))

			rebuilt := mem.CloneSchema()
			want := map[sqldb.Fingerprint]sqldb.ResultDigest{}
			for i, name := range mem.TableNames() {
				tbl, err := mem.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				rows := tbl.SnapshotRows()
				decoded := make([]sqldb.Row, 0, len(rows))
				var buf []byte
				for _, row := range rows {
					buf = appendRow(buf[:0], row)
					got, err := decodeRow(buf)
					if err != nil {
						t.Fatalf("%s: decode: %v", name, err)
					}
					decoded = append(decoded, got)
				}
				rowsEqual(t, name, decoded, rows)
				copyTbl, err := rebuilt.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				copyTbl.SetRows(decoded)

				cols := make([]string, len(tbl.Schema.Columns))
				for c, col := range tbl.Schema.Columns {
					cols[c] = col.Name
				}
				res := sqldb.RestoreResult(cols, rows, false)
				fp := sqldb.Fingerprint{byte(i), byte(i >> 8)}
				want[fp] = res.Digest()
				ns.Put(fp, res, nil)
			}
			if got, want := rebuilt.Fingerprint(), mem.Fingerprint(); got != want {
				t.Fatalf("fingerprint diverged across the codec round-trip: %x != %x", got, want)
			}
			if err := pc.Close(); err != nil {
				t.Fatal(err)
			}

			pc2 := openCache(t, path)
			defer pc2.Close()
			ns2 := pc2.Namespace(AppNamespace(tc.name, 7))
			for fp, digest := range want {
				res, err, ok := ns2.Get(fp)
				if !ok || err != nil {
					t.Fatalf("reloaded get %x: ok=%v err=%v", fp[:2], ok, err)
				}
				if got := res.Digest(); got != digest {
					t.Fatalf("result digest diverged across the probe-cache round-trip: %s != %s", got.Hex(), digest.Hex())
				}
			}
		})
	}
}
