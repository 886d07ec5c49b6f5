package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/service"
	"unmasque/internal/sqldb"
	"unmasque/internal/workloads/registry"
)

// workDir holds the daemon's per-round job store and probe cache; it
// lies inside the checkout the benchmark runs from.
const workDir = ".bench_build"

// daemonApps lists the imperative Enki, Wilos and RUBiS applications.
func daemonApps() []string {
	var out []string
	for _, n := range registry.Names() {
		if strings.HasPrefix(n, "enki/") || strings.HasPrefix(n, "wilos/") || strings.HasPrefix(n, "rubis/") {
			out = append(out, n)
		}
	}
	return out
}

// daemon is one manager on a fresh job store and probe cache.
type daemon struct {
	mgr *service.Manager
	dir string
}

// startDaemon starts a manager on a fresh directory under base.
func startDaemon(ctx context.Context, base string) (*daemon, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "daemon-")
	if err != nil {
		return nil, err
	}
	mgr, err := service.Start(ctx, service.Config{
		Workers:   runtime.NumCPU(),
		StorePath: filepath.Join(dir, "jobs.jsonl"),
		CacheDir:  dir,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &daemon{mgr: mgr, dir: dir}, nil
}

// stop drains the manager, which waits for its workers, and removes
// the round's files.
func (d *daemon) stop(ctx context.Context) error {
	err := d.mgr.Drain(ctx)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *daemon) cacheBytes() int64 {
	st, err := os.Stat(filepath.Join(d.dir, "probecache.log"))
	if err != nil {
		return 0
	}
	return st.Size()
}

// job is one daemon attempt: the latency the client saw plus the
// manager's view and result of the job.
type job struct {
	app       string
	seed      int64
	latencyMS float64
	err       error
	view      service.View
	res       service.Result
}

// waitTerminal blocks until the job is terminal, by draining its trace
// stream, which the manager closes on the terminal transition. A
// subscriber that falls behind is dropped and its channel closed, so a
// closed channel on a live job means subscribe again.
func waitTerminal(mgr *service.Manager, id int64) (service.View, error) {
	for {
		st, err := mgr.TraceStream(id)
		if err != nil {
			return service.View{}, err
		}
		_, live, cancel := st.Subscribe()
		for range live {
		}
		cancel()
		v, err := mgr.Get(id)
		if err != nil || v.State.Terminal() {
			return v, err
		}
	}
}

// runJobs submits the apps from nproc closed-loop clients, each
// waiting for its job's terminal state before submitting the next.
func runJobs(ctx context.Context, mgr *service.Manager, apps []string, seed int64, tr *layerTrace) []job {
	out := make([]job, len(apps))
	var next atomic.Int64
	var trMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(apps) {
					return
				}
				j := runJob(ctx, mgr, apps[i], seed)
				if tr != nil && j.view.ID != 0 {
					trMu.Lock()
					j.err = traceJob(mgr, j, tr)
					trMu.Unlock()
				}
				out[i] = j
			}
		}()
	}
	wg.Wait()
	return out
}

// runJob is one client round trip: submit, wait for the terminal
// state, fetch the result, check the ledger invariant.
func runJob(ctx context.Context, mgr *service.Manager, app string, seed int64) job {
	j := job{app: app, seed: seed}
	t0 := time.Now()
	v, err := mgr.Submit(ctx, service.JobSpec{App: app, Seed: seed})
	if err == nil {
		v, err = waitTerminal(mgr, v.ID)
	}
	j.latencyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err == nil {
		j.res, err = mgr.Result(v.ID)
	}
	j.view = v
	switch {
	case err != nil:
		j.err = err
	case j.res.State != service.StateDone:
		j.err = fmt.Errorf("job ended %s: %s", j.res.State, j.res.Error)
	case j.res.LedgerEvents != j.res.AppInvocations+j.res.CacheHits+j.res.DiskCacheHits:
		j.err = fmt.Errorf("%w: %d events != %d invocations + %d memory hits + %d disk hits",
			errLedger, j.res.LedgerEvents, j.res.AppInvocations, j.res.CacheHits, j.res.DiskCacheHits)
	}
	return j
}

// traceJob folds the recorded trace of an admitted job into tr, failed
// jobs included, and checks that a done job's ledger holds one event
// per probe its result accounts for. It returns the job's error.
func traceJob(mgr *service.Manager, j job, tr *layerTrace) error {
	var buf bytes.Buffer
	if err := mgr.WriteTrace(j.view.ID, &buf); err != nil {
		return errors.Join(j.err, err)
	}
	spans, probes, err := parseTrace(buf.Bytes())
	if err != nil {
		return errors.Join(j.err, err)
	}
	tr.addDaemon(spans, probes)
	if j.err != nil {
		return j.err
	}
	r := j.res
	return tr.checkLedger(len(probes), r.AppInvocations, r.CacheHits, r.DiskCacheHits)
}

// roundStats is one round: a fresh manager on an empty job store and
// probe cache, then the timed region, a cold pass over every app
// followed by a warm pass repeating it.
type roundStats struct {
	cold, warm []job
	setupCPUNS int64
	datagenNS  int64
	wallNS     int64
	cpuNS      int64
	allocB     uint64
	gcs        uint32
	cacheBytes int64
}

func (rs roundStats) jobs() []job { return append(append([]job(nil), rs.cold...), rs.warm...) }

// round sets up, runs and tears down one round on instances of seed,
// then puts every job through the correctness gate. Set-up generates
// one instance of every app, which the gate later checks against, and
// starts the manager; tear-down and the gate are outside the timed
// region.
func round(ctx context.Context, apps []string, seed int64, tr *layerTrace) (roundStats, error) {
	runtime.GC()
	t0, c0 := time.Now(), procCPU()
	inst := map[string]built{}
	for _, a := range apps {
		exe, db, err := registry.Build(a, seed)
		if err != nil {
			return roundStats{}, fmt.Errorf("building %s: %w", a, err)
		}
		inst[a] = built{exe, db}
	}
	datagen := time.Since(t0)
	d, err := startDaemon(ctx, workDir)
	if err != nil {
		return roundStats{}, err
	}
	setupCPU := procCPU() - c0
	rs := runRound(ctx, d, apps, seed, tr)
	rs.setupCPUNS, rs.datagenNS = setupCPU, datagen.Nanoseconds()
	if err := d.stop(ctx); err != nil {
		return rs, err
	}
	g := gate{}
	for _, jobs := range [][]job{rs.cold, rs.warm} {
		for i := range jobs {
			j := &jobs[i]
			if j.err == nil {
				in := inst[j.app]
				j.err = g.check(ctx, instance{j.app, j.seed}, j.res.SQL, func() (app.Executable, *sqldb.Database, error) {
					return in.exe, in.db, nil
				})
			}
		}
	}
	return rs, nil
}

// built is one generated application and its D_I.
type built struct {
	exe app.Executable
	db  *sqldb.Database
}

func runRound(ctx context.Context, d *daemon, apps []string, seed int64, tr *layerTrace) roundStats {
	runtime.GC() // start every round from the same heap state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var rs roundStats
	c0 := procCPU()
	t0 := time.Now()
	rs.cold = runJobs(ctx, d.mgr, apps, seed, tr)
	rs.cacheBytes = d.cacheBytes()
	rs.warm = runJobs(ctx, d.mgr, apps, seed, tr)
	rs.wallNS = time.Since(t0).Nanoseconds()
	rs.cpuNS = procCPU() - c0
	runtime.ReadMemStats(&m1)
	rs.allocB = m1.TotalAlloc - m0.TotalAlloc
	rs.gcs = m1.NumGC - m0.NumGC
	return rs
}

// nominalRound is a round's length, set-up and gate included, on a
// 2-vCPU x86-64 machine; it sets how many rounds fit in -seconds.
const nominalRound = 3 * time.Second

// runDaemon measures the daemon workload: a fixed number of rounds,
// each on instances of a new seed and on a fresh manager, job store and
// probe cache. In trace mode every untraced round is followed by a
// traced round on the same instances.
func runDaemon(ctx context.Context, o options, rep *report) error {
	apps := daemonApps()
	seeds := newSeedStream(o.seed)
	n := passes(o.seconds, nominalRound, 2*len(apps))
	var tr *layerTrace
	if o.trace {
		tr = newLayerTrace()
		n = max(2, n/2)
	}
	var plain, traced []roundStats
	for range n {
		seed := seeds.next()
		rs, err := round(ctx, apps, seed, nil)
		if err != nil {
			return err
		}
		plain = append(plain, rs)
		if o.trace {
			if rs, err = round(ctx, apps, seed, tr); err != nil {
				return err
			}
			traced = append(traced, rs)
		}
	}
	for _, rs := range append(append([]roundStats(nil), plain...), traced...) {
		for _, j := range rs.jobs() {
			if errors.Is(j.err, errIncorrect) || errors.Is(j.err, errLedger) {
				rep.incorrect(j.app, j.err)
			}
			rep.count(j.app, j.err)
		}
	}
	rep.runs = map[string]any{"unit": "round", "untraced": len(plain), "traced": len(traced),
		"applications": len(apps), "clients": runtime.NumCPU(), "manager_workers": runtime.NumCPU()}
	blocks, inv := roundBlocks(plain)
	if !o.trace {
		endToEnd(rep, blocks, inv)
		rep.show(wallClock(blocks)...)
		return nil
	}
	perLayerDaemon(plain, traced, tr, blocks, rep)
	return nil
}

func jobsOf(rounds []roundStats) []job {
	var out []job
	for _, rs := range rounds {
		out = append(out, rs.jobs()...)
	}
	return out
}

// latency is a job's latency as the client saw it, +Inf when it failed.
func (j job) latency() float64 {
	if j.err != nil {
		return math.Inf(1)
	}
	return j.latencyMS
}

// roundBlocks turns the rounds into blocks, and collects the
// application invocations of every successful job.
func roundBlocks(rounds []roundStats) ([]block, []int64) {
	var inv []int64
	var blocks []block
	for _, rs := range rounds {
		b := block{wallS: float64(rs.wallNS) / 1e9, cpuNS: rs.cpuNS, setupCPUNS: rs.setupCPUNS, datagenNS: rs.datagenNS}
		for _, j := range rs.jobs() {
			b.lat = append(b.lat, j.latency())
			if j.err == nil {
				b.ok++
				inv = append(inv, j.res.AppInvocations)
			}
		}
		blocks = append(blocks, b)
	}
	return blocks, inv
}

// perLayerDaemon reports the layer metrics: service, storage and
// runtime figures from the untraced rounds, phase and application
// figures from the traced rounds' job traces.
func perLayerDaemon(plain, traced []roundStats, tr *layerTrace, blocks []block, rep *report) {
	tjobs := jobsOf(traced)
	n := tr.attempts
	for _, p := range phases {
		rep.add("core."+strings.ReplaceAll(p, "-", "_")+"_ms", "ms", float64(tr.phaseUS[p])/1e3/float64(n), n)
	}
	tr.finish(rep)
	var probes, disk int64
	var eng sqldb.EngineCounters
	for _, j := range tjobs {
		probes += j.res.LedgerEvents
		disk += j.res.DiskCacheHits
		eng = addCounters(eng, sqldb.EngineCounters{
			IndexBuilds:   j.res.IndexBuilds,
			IndexHits:     j.res.IndexHits,
			RangeBuilds:   j.res.RangeBuilds,
			RangeHits:     j.res.RangeHits,
			JoinReuses:    j.res.JoinBuildsReused,
			VectorBatches: j.res.VectorBatches,
		})
	}
	nj := len(tjobs)
	rep.add("core.probes", "count", float64(probes)/float64(nj), nj)
	// Neither service.Result nor the trace tells a probe the scheduler
	// fanned out in parallel from one it ran in turn.
	rep.add("core.parallel_probes", "count", 0, 0)
	hitRate := 0.0
	if tr.cacheEligible > 0 {
		hitRate = float64(tr.cacheHits) / float64(tr.cacheEligible)
	}
	rep.add("core.cache_hit_rate", "fraction", hitRate, n)
	rep.add("core.disk_cache_hits", "count", float64(disk)/float64(nj), nj)
	rep.add("core.rows_after_sampling", "rows", 0, 0) // not in service.Result
	addEngine(rep, eng, nj)

	var qwait, run, overhead, cold, warm []float64
	var coldBytes int64
	var warmProbes, warmDisk int64
	rejected := 0
	for _, rs := range plain {
		coldBytes += rs.cacheBytes
		for _, j := range rs.cold {
			cold = append(cold, j.latency())
		}
		for _, j := range rs.warm {
			warm = append(warm, j.latency())
			warmProbes += j.res.LedgerEvents
			warmDisk += j.res.DiskCacheHits
		}
	}
	jobs := jobsOf(plain)
	for _, j := range jobs {
		if errors.Is(j.err, service.ErrQueueFull) {
			rejected++
		}
		sub, e1 := time.Parse(time.RFC3339Nano, j.view.Submitted)
		start, e2 := time.Parse(time.RFC3339Nano, j.view.Started)
		fin, e3 := time.Parse(time.RFC3339Nano, j.view.Finished)
		if e1 != nil || e2 != nil || e3 != nil {
			continue
		}
		runMS := float64(fin.Sub(start).Nanoseconds()) / 1e6
		qwait = append(qwait, float64(start.Sub(sub).Nanoseconds())/1e6)
		run = append(run, runMS)
		overhead = append(overhead, runMS-float64(j.res.TotalMS))
	}
	rep.add("service.queue_wait_ms_p50", "ms", percentile(qwait, 0.5), len(qwait))
	rep.add("service.run_ms_p50", "ms", percentile(run, 0.5), len(run))
	rep.add("service.overhead_ms_p50", "ms", percentile(overhead, 0.5), len(overhead))
	rep.add("service.cold_latency_ms_p50", "ms", percentile(cold, 0.5), len(cold))
	rep.add("service.warm_latency_ms_p50", "ms", percentile(warm, 0.5), len(warm))
	rep.add("service.rejected", "count", float64(rejected), len(jobs))
	rep.add("storage.probecache_bytes_per_cold_job", "bytes", float64(coldBytes)/float64(len(cold)), len(cold))
	warmFrac := 0.0
	if warmProbes > 0 {
		warmFrac = float64(warmDisk) / float64(warmProbes)
	}
	rep.add("storage.warm_hit_frac", "fraction", warmFrac, len(warm))

	rep.add("obs.tracing_overhead_pct", "%", 0, 0) // the daemon traces every job; there is no untraced mode
	var allocB uint64
	var gcs uint32
	for _, rs := range plain {
		allocB += rs.allocB
		gcs += rs.gcs
	}
	na := float64(len(jobs))
	rep.add("runtime.alloc_mb_per_extraction", "MB", float64(allocB)/(1<<20)/na, len(jobs))
	rep.add("runtime.gc_cycles_per_extraction", "count", float64(gcs)/na, len(jobs))
	rep.metrics = append(rep.metrics, wallClock(blocks)...)
	rep.add("failed_frac", "fraction", float64(rep.failed)/float64(rep.attempted), rep.attempted)
}
