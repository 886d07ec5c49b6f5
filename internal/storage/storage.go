// Package storage is the durable tier of the run-memoization cache: a
// fingerprint-keyed probe cache that persists completed application
// executions across extraction jobs and daemon restarts.
//
// The in-memory engine (internal/sqldb) loses every memoized
// application execution when a job ends. The probe cache
// (probecache.go) keeps them: completed executions are appended to one
// log keyed by (namespace, sqldb.Fingerprint), so result columns,
// rows and deterministic application errors survive restarts and are
// shared across jobs and tenants. Two jobs extracting from the same
// executable pay for its probes once.
//
// The package has three parts:
//
//   - codec.go encodes sqldb rows exactly, so a result loaded from the
//     log has the digest of the one that was saved.
//   - probecache.go holds the cache and its [len][crc][payload] record
//     framing.
//   - tail.go holds RecoverTail, which truncates the torn final record
//     a crash mid-append leaves behind. The service tier's JSONL job
//     store recovers through the same helper.
//
// Formats and the recovery protocol are documented in DESIGN.md §13.
package storage

import "errors"

// ErrTornRecord marks a partially written record at the tail of an
// append-only file — the expected residue of a crash mid-append.
// RecoverTail converts it into a truncation, not a failure.
var ErrTornRecord = errors.New("storage: torn record")
