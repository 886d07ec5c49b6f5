package golint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/analysis/golint"
)

// writeTree materializes a module tree under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// seededModule builds a small module exercising every rule: each
// violation is tagged with a “want:RULE” comment on its line, and
// legal constructs carry none. The module name differs from the real
// repo on purpose — the rules must key on path suffixes, not on the
// module name.
func seededModule(t *testing.T) string {
	return writeTree(t, map[string]string{
		"go.mod": "module example.com/app\n\ngo 1.22\n",
		"internal/sqldb/db.go": `package sqldb

type Row []int

type Table struct {
	Name string
	Rows []Row
}

func (t *Table) SnapshotRows() []Row { return t.Rows }

type Database struct{ tables map[string]*Table }

func (d *Database) CreateTable(name string) error { return nil }
func (d *Database) DropTable(name string) error   { return nil }
func (d *Database) RenameTable(a, b string) error { return nil }
func (d *Database) Insert(name string, r Row) error { return nil }
func (d *Database) Table(name string) *Table      { return d.tables[name] }
func (d *Database) Clone() *Database              { return &Database{} }

type Value struct{ I int64 }

// badPerRowAlloc allocates Value maps once per row: GL008.
func badPerRowAlloc(rows []Row) int {
	n := 0
	for range rows {
		m := make(map[string]Value) // want:GL008
		l := map[int]Value{}        // want:GL008
		n += len(m) + len(l)
	}
	return n
}

// goodHoistedAlloc reuses one map across the loop: legal.
func goodHoistedAlloc(rows []Row) int {
	m := make(map[string]Value)
	for i := range rows {
		m["k"] = Value{I: int64(i)}
	}
	return len(m)
}

// goodNonValueMap allocates a map of plain ints in a loop: GL008 only
// guards Value elements.
func goodNonValueMap(rows []Row) int {
	n := 0
	for range rows {
		n += len(make(map[string]int64))
	}
	return n
}

// badPerRowSliceMap allocates maps of Value-slice and Row payloads per
// row: the aggregation-path shapes GL008 also covers.
func badPerRowSliceMap(rows []Row) int {
	n := 0
	for range rows {
		m := make(map[string][]Value) // want:GL008
		r := map[int]Row{}            // want:GL008
		n += len(m) + len(r)
	}
	return n
}
`,
		"internal/core/session.go": `package core

import (
	"errors"
	"fmt"

	"example.com/app/internal/sqldb"
)

type Session struct {
	source *sqldb.Database
	silo   *sqldb.Database
}

// badPanic must trip GL001.
func badPanic(x int) int {
	if x < 0 {
		panic("negative") // want:GL001
	}
	return x
}

// MustPositive is a Must* wrapper: its panic is exempt.
func MustPositive(x int) int {
	if x < 0 {
		panic("negative")
	}
	return x
}

// badInsert mutates the source database: GL002.
func (s *Session) badInsert() error {
	return s.source.Insert("t", sqldb.Row{1}) // want:GL002
}

// badRename renames the source without restoring it: GL002.
func (s *Session) badRename() error {
	return s.source.RenameTable("t", "u") // want:GL002
}

// renamePaired performs rename + restore: legal.
func (s *Session) renamePaired() error {
	if err := s.source.RenameTable("t", "u"); err != nil {
		return err
	}
	return s.source.RenameTable("u", "t")
}

// siloMutation mutates the working clone: legal.
func (s *Session) siloMutation() error {
	return s.silo.Insert("t", sqldb.Row{1})
}

// badWrap passes an error through %v: GL003.
func badWrap() error {
	err := errors.New("boom")
	return fmt.Errorf("step failed: %v", err) // want:GL003
}

// goodWrap uses %w: legal.
func goodWrap() error {
	err := errors.New("boom")
	return fmt.Errorf("step failed: %w", err)
}

// badRows reaches into table internals: GL004.
func badRows(tbl *sqldb.Table) int {
	return len(tbl.Rows) // want:GL004
}

// goodRows uses the accessor: legal.
func goodRows(tbl *sqldb.Table) int {
	return len(tbl.SnapshotRows())
}
`,
		"internal/core/debug.go": `package core

import (
	"fmt"
	"io"
	"log" // want:GL009
	"os"  // want:GL010
)

// badPrints write to the process streams from the pipeline: GL005.
func badPrints(n int) {
	fmt.Println("probing", n)   // want:GL005
	fmt.Printf("probe %d\n", n) // want:GL005
	log.Printf("probe %d", n)   // want:GL005
}

// goodPrints target an injected writer: legal under GL005 (the os
// import itself is still GL010 — core is not a storage tier).
func goodPrints(w io.Writer, n int) {
	fmt.Fprintf(w, "probe %d\n", n)
	fmt.Fprintln(os.Stderr, "fatal setup problem")
}
`,
		"cmd/report/main.go": `package main

import "fmt"

// Command-line surfaces own stdout: GL005 does not apply here.
func main() {
	fmt.Println("extracted")
}
`,
		"internal/workloads/gen/gen.go": `package gen

import "example.com/app/internal/sqldb"

// Workload generators may panic on impossible static inputs.
func MustScale(n int) int {
	if n <= 0 {
		panic("bad scale")
	}
	return n
}

func generate(n int) int {
	if n > 1000 {
		panic("too large") // exempt: internal/workloads
	}
	return n
}

// scanRows models imperative application code, which reads table
// storage directly; internal/workloads is exempt from GL004.
func scanRows(tbl *sqldb.Table) int {
	return len(tbl.Rows)
}
`,
		"cmd/tool/main.go": `package main

func main() {
	panic("cli crash is fine") // exempt: package main
}
`,
		"internal/xdata/gen.go": `package xdata

import (
	"math/rand"
	"time"
)

// badClock reads the ambient clock from a deterministic tier: GL007.
func badClock() int64 {
	return time.Now().Unix() // want:GL007
}

// badElapsed measures wall time: GL007.
func badElapsed(start time.Time) time.Duration {
	return time.Since(start) // want:GL007
}

// badGlobalRand draws from the shared global generator: GL007.
func badGlobalRand() int {
	return rand.Intn(10) // want:GL007
}

// seededRand builds and uses an explicitly seeded generator: legal.
func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// clockValue references time.Now as a value without calling it (the
// injectable-default pattern): legal.
func clockValue(clock func() time.Time) func() time.Time {
	if clock == nil {
		clock = time.Now
	}
	return clock
}
`,
		"internal/analysis/check/check.go": `package check

import "time"

// badStamp shows the rule also covers internal/analysis: GL007.
func badStamp() time.Time {
	return time.Now() // want:GL007
}
`,
		"internal/service/telemetry.go": `package service

import (
	"expvar"   // want:GL009
	"log/slog" // want:GL009

	obslog "log" // want:GL009
)

// Direct stdlib telemetry outside internal/obs: GL009 flags the
// imports themselves (renamed imports included).
var hits = expvar.NewInt("hits")

func record(msg string) {
	slog.Info(msg)
	obslog.Println(msg)
}
`,
		"internal/obs/obs.go": `package obs

import (
	"expvar"
	"log/slog"
)

// The observability layer itself binds the stdlib primitives: legal.
var gauge = expvar.NewInt("gauge")

func level() slog.Level { return slog.LevelInfo }
`,
		"internal/obs/telemetry/telemetry.go": `package telemetry

import "log/slog"

// Subpackages of internal/obs are part of the layer: legal.
func attr(k, v string) slog.Attr { return slog.String(k, v) }
`,
		"internal/bench/write.go": `package bench

import "os" // want:GL010

// WriteOut does direct file I/O outside the storage tiers: GL010.
func WriteOut(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
`,
		"internal/storage/disk.go": `package storage

import "os"

// OpenLog is the storage tier — file I/O is its charter: legal.
func OpenLog(path string) (*os.File, error) { return os.Open(path) }
`,
		"internal/service/clock.go": `package service

import "time"

// Stamp is outside the deterministic tiers; GL007 does not apply.
func Stamp() time.Time { return time.Now() }
`,
		"internal/service/svc.go": `package service

import (
	"context"
	"net"
	"net/http"
	"os"
)

// OpenLog does file I/O without a context: GL006.
func OpenLog(path string) (*os.File, error) { // want:GL006
	return os.OpenFile(path, os.O_RDWR, 0)
}

// StartWorkers spawns goroutines without a context: GL006.
func StartWorkers(n int) { // want:GL006
	for i := 0; i < n; i++ {
		go func() {}()
	}
}

// Flush writes through an os.File without a context: GL006.
func Flush(f *os.File) error { // want:GL006
	return f.Sync()
}

// OpenLogCtx is the compliant form: legal.
func OpenLogCtx(ctx context.Context, path string) (*os.File, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_RDWR, 0)
}

// Listen takes its context first: legal.
func Listen(ctx context.Context, addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

type Store struct{ f *os.File }

// Close is exempt: the io.Closer convention fixes the signature.
func (s *Store) Close() error { return s.f.Sync() }

// ServeHTTP is exempt: http.Handler fixes the signature and the
// request carries its own context.
func (s *Store) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	go func() {}()
}

// unexported functions are out of scope.
func flush(f *os.File) error { return f.Sync() }

// Depth is pure computation: no context needed.
func Depth(xs []int) int { return len(xs) }
`,
	})
}

// wantedFindings scans the seeded sources for want:RULE markers.
func wantedFindings(t *testing.T, root string) map[string]int {
	t.Helper()
	want := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(data), "\n") {
			if idx := strings.Index(line, "want:"); idx >= 0 {
				rule := strings.TrimSpace(line[idx+len("want:"):])
				want[filepath.ToSlash(rel)+":"+itoa(i+1)+":"+rule]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestSeededViolations(t *testing.T) {
	root := seededModule(t)
	findings, err := golint.LintDir(root)
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	got := map[string]int{}
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.ToSlash(rel)+":"+itoa(f.Pos.Line)+":"+f.Rule]++
	}
	want := wantedFindings(t, root)
	for k := range want {
		if got[k] == 0 {
			t.Errorf("expected finding %s did not fire", k)
		}
	}
	for k := range got {
		if want[k] == 0 {
			t.Errorf("unexpected finding %s", k)
		}
	}
}

// TestRuleIDsCovered keeps the seeded module honest: every rule in
// the catalogue must have at least one seeded violation.
func TestRuleIDsCovered(t *testing.T) {
	root := seededModule(t)
	want := wantedFindings(t, root)
	for _, rule := range []string{
		golint.RulePanic, golint.RuleSourceMut, golint.RuleErrWrap, golint.RuleTableAccess,
		golint.RuleDirectPrint, golint.RuleServiceCtx, golint.RuleDeterminism,
		golint.RuleBatchAlloc, golint.RuleObsConstruct, golint.RuleFileIO,
	} {
		found := false
		for k := range want {
			if strings.HasSuffix(k, ":"+rule) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("seeded module has no violation for %s", rule)
		}
	}
}

// TestSelfLint runs the linter over the repository itself; the tree
// must be clean (this is also enforced by ci.sh via cmd/unmasquelint).
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecking the full module is not a -short test")
	}
	findings, err := golint.LintDir(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatalf("LintDir: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func TestLintDirErrors(t *testing.T) {
	t.Run("no-gomod", func(t *testing.T) {
		if _, err := golint.LintDir(t.TempDir()); err == nil {
			t.Error("expected error for missing go.mod")
		}
	})
	t.Run("broken-source", func(t *testing.T) {
		root := writeTree(t, map[string]string{
			"go.mod":  "module example.com/broken\n\ngo 1.22\n",
			"main.go": "package broken\n\nfunc f() int { return undefinedSymbol }\n",
		})
		if _, err := golint.LintDir(root); err == nil {
			t.Error("expected typecheck error")
		}
	})
}
