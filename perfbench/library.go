package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
	"unmasque/internal/workloads/registry"
)

// libApp is one hidden query of a library-path workload.
type libApp struct {
	name   string
	having bool
}

// libNames lists the registered applications of a library workload:
// the 12 TPC-H queries plus H1-H3 (extracted with the HAVING
// pipeline), or the 11 JOB queries.
func libNames(workload string) []string {
	var out []string
	for _, n := range registry.Names() {
		switch {
		case workload == "tpch-extract" && (strings.HasPrefix(n, "tpch/Q") || strings.HasPrefix(n, "tpch/H")),
			workload == "job-extract" && strings.HasPrefix(n, "job/J"):
			out = append(out, n)
		}
	}
	return out
}

// timedExe wraps an application to time every Run from outside the
// pipeline, on the clock of the extraction's tracer.
type timedExe struct {
	inner app.Executable
	epoch time.Time

	mu       sync.Mutex
	runs     []interval
	timeouts int
	errors   int
}

func (t *timedExe) Name() string { return t.inner.Name() }

// ConcurrentRunSafe forwards the wrapped application's declaration so
// wrapping never changes how the scheduler treats it.
func (t *timedExe) ConcurrentRunSafe() bool {
	if rep, ok := t.inner.(app.ConcurrencyReporter); ok {
		return rep.ConcurrentRunSafe()
	}
	return true
}

func (t *timedExe) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	start := time.Since(t.epoch).Microseconds()
	res, err := t.inner.Run(ctx, db)
	end := time.Since(t.epoch).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs = append(t.runs, interval{start, end})
	switch {
	case err != nil && ctx.Err() != nil:
		// The extraction context is never cancelled here, so an
		// expired run context is the probe deadline: app.ErrTimeout.
		t.timeouts++
	case err != nil:
		t.errors++
	}
	return res, err
}

// attempt is the outcome of one timed extraction.
type attempt struct {
	app  string
	seed int64
	// genNS and genCPUNS are the wall and process CPU time in the
	// workload generator, outside the timed call.
	genNS     int64
	genCPUNS  int64
	latencyMS float64
	cpuNS     int64
	allocB    uint64
	gcs       uint32
	err       error
	stats     core.Stats
}

// extractOnce runs one extraction on a freshly generated D_I, so no
// index or cache state carries over from an earlier attempt. The timed
// part is the ExtractContext call alone; with tr set the tracer, the
// ledger and the timing wrapper are attached and their readings folded
// into tr.
//
// The correctness gate then runs, untimed, on the same instance; a
// traced attempt first checks its ledger.
func extractOnce(ctx context.Context, a libApp, seed int64, tr *layerTrace, g gate) attempt {
	g0, gc0 := time.Now(), procCPU()
	inner, db, err := registry.Build(a.name, seed)
	genNS, genCPUNS := time.Since(g0).Nanoseconds(), procCPU()-gc0
	if err != nil {
		return attempt{app: a.name, seed: seed, genNS: genNS, genCPUNS: genCPUNS, latencyMS: math.Inf(1), err: err}
	}
	runtime.GC() // collect the generator's garbage outside the timed call
	cfg := core.DefaultConfig()
	cfg.ExtractHaving = a.having
	exe := inner
	var wrap *timedExe
	if tr != nil {
		wrap = &timedExe{inner: inner, epoch: time.Now()}
		exe = wrap
		cfg.Tracer = obs.NewTracer("extract")
		cfg.Ledger = obs.NewLedger()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := procCPU()
	t0 := time.Now()
	ext, err := core.ExtractContext(ctx, exe, db, cfg)
	lat := time.Since(t0)
	c1 := procCPU()
	runtime.ReadMemStats(&m1)
	at := attempt{
		app:       a.name,
		seed:      seed,
		genNS:     genNS,
		genCPUNS:  genCPUNS,
		latencyMS: float64(lat.Nanoseconds()) / 1e6,
		cpuNS:     c1 - c0,
		allocB:    m1.TotalAlloc - m0.TotalAlloc,
		gcs:       m1.NumGC - m0.NumGC,
		err:       err,
	}
	if err == nil {
		at.stats = ext.Stats
	}
	if tr != nil {
		tr.addLibrary(cfg.Tracer.Events(), cfg.Ledger, wrap, &at)
	}
	if at.err == nil {
		at.err = g.check(ctx, instance{a.name, seed}, ext.SQL, func() (app.Executable, *sqldb.Database, error) {
			return inner, db, nil
		})
	}
	return at
}

// engineOf is the engine counter deltas an extraction's Stats carry.
func engineOf(s core.Stats) sqldb.EngineCounters {
	return sqldb.EngineCounters{
		IndexBuilds:   s.IndexBuilds,
		IndexHits:     s.IndexHits,
		RangeBuilds:   s.RangeBuilds,
		RangeHits:     s.RangeHits,
		JoinReuses:    s.JoinBuildsReused,
		VectorBatches: s.VectorBatches,
	}
}

// addCounters is a + b for the engine counters the per-layer metrics
// report.
func addCounters(a, b sqldb.EngineCounters) sqldb.EngineCounters {
	return sqldb.EngineCounters{
		IndexBuilds:   a.IndexBuilds + b.IndexBuilds,
		IndexHits:     a.IndexHits + b.IndexHits,
		RangeBuilds:   a.RangeBuilds + b.RangeBuilds,
		RangeHits:     a.RangeHits + b.RangeHits,
		JoinReuses:    a.JoinReuses + b.JoinReuses,
		VectorBatches: a.VectorBatches + b.VectorBatches,
	}
}

// passStats accumulates whole passes over a workload's applications,
// so every query carries the same weight in every figure.
type passStats struct {
	attempts []attempt
	passes   int
}

// runPass extracts every application once, in order.
func runPass(ctx context.Context, apps []libApp, seed int64, tr *layerTrace, g gate, ps *passStats) {
	for _, a := range apps {
		ps.attempts = append(ps.attempts, extractOnce(ctx, a, seed, tr, g))
	}
	ps.passes++
}

// sum adds f over the attempts.
func sum[T int64 | uint64 | uint32](attempts []attempt, f func(attempt) T) T {
	var s T
	for _, at := range attempts {
		s += f(at)
	}
	return s
}

// nominalPass is a pass's length, extraction plus generation and gate,
// on a 2-vCPU x86-64 machine; it sets how many passes fit in -seconds.
var nominalPass = map[string]time.Duration{
	"tpch-extract": 3750 * time.Millisecond,
	"job-extract":  900 * time.Millisecond,
}

// runLibrary measures a library workload: a fixed number of passes,
// each on instances of a new seed. In trace mode every untraced pass is
// followed by a traced pass on the same instances, so both see the same
// inputs and machine state and the difference in their CPU is the
// tracing overhead.
func runLibrary(ctx context.Context, o options, rep *report) error {
	names := libNames(o.workload)
	var apps []libApp
	for _, n := range names {
		apps = append(apps, libApp{name: n, having: strings.HasPrefix(n, "tpch/H")})
	}
	seeds := newSeedStream(o.seed)
	n := passes(o.seconds, nominalPass[o.workload], len(apps))
	var plain, traced passStats
	var tr *layerTrace
	if o.trace {
		tr = newLayerTrace()
		n = max(2, n/2) // pairs of an untraced and a traced pass
	}
	g := gate{}
	for range n {
		seed := seeds.next()
		runPass(ctx, apps, seed, nil, g, &plain)
		if o.trace {
			runPass(ctx, apps, seed, tr, g, &traced)
		}
	}
	countAttempts(plain.attempts, rep)
	countAttempts(traced.attempts, rep)
	rep.runs = map[string]any{"unit": "pass", "untraced": plain.passes, "traced": traced.passes,
		"applications": len(apps)}
	blocks := passBlocks(plain, len(apps))
	if !o.trace {
		var inv []int64
		for _, at := range plain.attempts {
			if at.err == nil {
				inv = append(inv, at.stats.AppInvocations)
			}
		}
		endToEnd(rep, blocks, inv)
		rep.show(wallClock(blocks)...)
		return nil
	}
	tr.finish(rep)
	perLayerLibrary(plain, traced, blocks, rep)
	return nil
}

// countAttempts counts each attempt, and each failure, in the report;
// a failed correctness gate or ledger check marks the run incorrect.
func countAttempts(attempts []attempt, rep *report) {
	for _, at := range attempts {
		if errors.Is(at.err, errIncorrect) || errors.Is(at.err, errLedger) {
			rep.incorrect(at.app, at.err)
		}
		rep.count(at.app, at.err)
	}
}

// passBlocks splits the attempts into their passes. A pass's wall time
// is the sum of its ExtractContext calls, its set-up the sum of its
// generator calls.
func passBlocks(ps passStats, perPass int) []block {
	var blocks []block
	for i, at := range ps.attempts {
		if i%perPass == 0 {
			blocks = append(blocks, block{})
		}
		b := &blocks[len(blocks)-1]
		b.wallS += at.latencyMS / 1e3
		b.cpuNS += at.cpuNS
		b.setupCPUNS += at.genCPUNS
		b.datagenNS += at.genNS
		if at.err != nil {
			b.lat = append(b.lat, math.Inf(1))
			continue
		}
		b.ok++
		b.lat = append(b.lat, at.latencyMS)
	}
	return blocks
}

// perLayerLibrary reports the Stats-, engine- and runtime-derived
// layer metrics of the untraced passes. Stats exist only for successful
// extractions, so those means are per successful extraction.
func perLayerLibrary(plain, traced passStats, blocks []block, rep *report) {
	var ok []attempt
	for _, at := range plain.attempts {
		if at.err == nil {
			ok = append(ok, at)
		}
	}
	n := len(ok)
	mean := func(f func(at attempt) float64) float64 {
		s := 0.0
		for _, at := range ok {
			s += f(at)
		}
		return s / float64(n)
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	phaseMS := map[string]func(s core.Stats) time.Duration{
		"core.from_clause_ms": func(s core.Stats) time.Duration { return s.FromClause },
		"core.minimizer_ms":   func(s core.Stats) time.Duration { return s.Minimizer() },
		"core.join_graph_ms":  func(s core.Stats) time.Duration { return s.JoinGraph },
		"core.filters_ms":     func(s core.Stats) time.Duration { return s.Filters },
		"core.having_ms":      func(s core.Stats) time.Duration { return s.Having },
		"core.projection_ms":  func(s core.Stats) time.Duration { return s.Projection },
		"core.group_by_ms":    func(s core.Stats) time.Duration { return s.GroupBy },
		"core.aggregation_ms": func(s core.Stats) time.Duration { return s.Aggregation },
		"core.order_by_ms":    func(s core.Stats) time.Duration { return s.OrderBy },
		"core.limit_ms":       func(s core.Stats) time.Duration { return s.Limit },
		"core.checker_ms":     func(s core.Stats) time.Duration { return s.Checker },
	}
	for _, name := range sortedKeys(phaseMS) {
		f := phaseMS[name]
		rep.add(name, "ms", mean(func(at attempt) float64 { return ms(f(at.stats)) }), n)
	}
	rep.add("core.probes", "count", mean(func(at attempt) float64 {
		return float64(at.stats.AppInvocations + at.stats.CacheHits + at.stats.DiskCacheHits)
	}), n)
	rep.add("core.parallel_probes", "count", mean(func(at attempt) float64 { return float64(at.stats.ParallelProbes) }), n)
	rep.add("core.cache_hit_rate", "fraction", mean(func(at attempt) float64 { return at.stats.CacheHitRate() }), n)
	rep.add("core.disk_cache_hits", "count", mean(func(at attempt) float64 { return float64(at.stats.DiskCacheHits) }), n)
	rep.add("core.rows_after_sampling", "rows", mean(func(at attempt) float64 { return float64(at.stats.RowsAfterSampling) }), n)

	var eng sqldb.EngineCounters
	for _, at := range ok {
		eng = addCounters(eng, engineOf(at.stats))
	}
	addEngine(rep, eng, n)

	cpu := func(ps passStats) float64 {
		return float64(sum(ps.attempts, func(at attempt) int64 { return at.cpuNS })) / float64(len(ps.attempts))
	}
	rep.add("obs.tracing_overhead_pct", "%", 100*(cpu(traced)/cpu(plain)-1), len(traced.attempts))
	na := float64(len(plain.attempts))
	alloc := sum(plain.attempts, func(at attempt) uint64 { return at.allocB })
	gcs := sum(plain.attempts, func(at attempt) uint32 { return at.gcs })
	rep.add("runtime.alloc_mb_per_extraction", "MB", float64(alloc)/(1<<20)/na, len(plain.attempts))
	rep.add("runtime.gc_cycles_per_extraction", "count", float64(gcs)/na, len(plain.attempts))
	rep.metrics = append(rep.metrics, wallClock(blocks)...)
	rep.add("failed_frac", "fraction", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	addServiceNA(rep)
}

// addEngine reports summed engine counter deltas per extraction.
func addEngine(rep *report, e sqldb.EngineCounters, n int) {
	per := func(v int64) float64 { return float64(v) / float64(n) }
	rep.add("sqldb.index_builds", "count", per(e.IndexBuilds), n)
	rep.add("sqldb.index_hits", "count", per(e.IndexHits), n)
	rep.add("sqldb.range_builds", "count", per(e.RangeBuilds), n)
	rep.add("sqldb.range_hits", "count", per(e.RangeHits), n)
	rep.add("sqldb.join_reuses", "count", per(e.JoinReuses), n)
	rep.add("sqldb.vector_batches", "count", per(e.VectorBatches), n)
	ratio := 0.0
	if d := e.IndexBuilds + e.IndexHits; d > 0 {
		ratio = float64(e.IndexHits) / float64(d)
	}
	rep.add("sqldb.index_hit_ratio", "fraction", ratio, n)
}

// addServiceNA reports the daemon-only layers as zero on the library
// workloads, which never start a service manager or a probe cache.
func addServiceNA(rep *report) {
	for _, name := range []string{
		"service.queue_wait_ms_p50", "service.run_ms_p50", "service.overhead_ms_p50",
		"service.cold_latency_ms_p50", "service.warm_latency_ms_p50",
	} {
		rep.add(name, "ms", 0, 0)
	}
	rep.add("service.rejected", "count", 0, 0)
	rep.add("storage.probecache_bytes_per_cold_job", "bytes", 0, 0)
	rep.add("storage.warm_hit_frac", "fraction", 0, 0)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
