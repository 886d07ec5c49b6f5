package bench

// Serving-tier throughput: how many extraction jobs per second the
// internal/service manager sustains when a burst of concurrent
// submissions lands on a bounded worker pool (the PR 4 subsystem).

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"unmasque/internal/obs"
	"unmasque/internal/service"
	"unmasque/internal/workloads/registry"
)

// ServiceRow is one worker-pool size of the throughput experiment.
type ServiceRow struct {
	Workers    int
	Jobs       int
	Wall       time.Duration
	JobsPerSec float64
	P50        int64 // job latency p50, ms
	P99        int64 // job latency p99, ms
	AllDone    bool  // every job reached state done
	Invariant  bool  // ledger events == invocations + cache hits, per job
}

// Service measures the job manager under burst load: 32 jobs —
// registered imperative applications — are submitted from 32
// concurrent goroutines against pools of increasing size, every job
// is driven to completion (via graceful drain), and the table reports
// sustained jobs/sec plus the manager's own latency quantiles. The
// per-job ledger invariant is re-checked for every result.
func Service(w io.Writer, opt Options) ([]ServiceRow, error) {
	const jobs = 32
	workerSets := []int{1, 2, 4, 8}
	if opt.Quick {
		workerSets = []int{2, 4}
	}
	apps := serviceApps()
	if len(apps) == 0 {
		return nil, fmt.Errorf("service bench: no registered enki applications")
	}

	tbl := &TextTable{
		Title:  "Extraction Service — burst throughput (32 concurrent submissions)",
		Header: []string{"workers", "jobs", "wall_ms", "jobs_per_sec", "p50_ms", "p99_ms", "all_done", "ledger_invariant"},
	}
	var out []ServiceRow
	for _, workers := range workerSets {
		met := obs.NewMetrics()
		mgr, err := service.Start(context.Background(), service.Config{
			Workers:    workers,
			QueueDepth: jobs,
			Metrics:    met,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ids := make([]int64, jobs)
		errs := make([]error, jobs)
		var wg sync.WaitGroup
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := mgr.Submit(context.Background(),
					service.JobSpec{App: apps[i%len(apps)], Seed: opt.Seed})
				ids[i], errs[i] = v.ID, err
			}(i)
		}
		wg.Wait()
		// Drain waits for every accepted job to finish — the burst's
		// completion barrier.
		if err := mgr.Drain(context.Background()); err != nil {
			return nil, fmt.Errorf("service bench drain (workers=%d): %w", workers, err)
		}
		wall := time.Since(start)
		// The manager observes every finished job into this histogram.
		latency := met.Histogram("job_latency_ms")

		row := ServiceRow{
			Workers:    workers,
			Jobs:       jobs,
			Wall:       wall,
			JobsPerSec: float64(jobs) / wall.Seconds(),
			P50:        int64(math.Round(latency.Quantile(0.50))),
			P99:        int64(math.Round(latency.Quantile(0.99))),
			AllDone:    true,
			Invariant:  true,
		}
		for i := 0; i < jobs; i++ {
			if errs[i] != nil {
				return nil, fmt.Errorf("service bench submit %d (workers=%d): %w", i, workers, errs[i])
			}
			res, err := mgr.Result(ids[i])
			if err != nil {
				return nil, fmt.Errorf("service bench result %d (workers=%d): %w", ids[i], workers, err)
			}
			if res.State != service.StateDone {
				row.AllDone = false
			}
			if res.LedgerEvents == 0 || res.LedgerEvents != res.AppInvocations+res.CacheHits+res.DiskCacheHits {
				row.Invariant = false
			}
		}
		out = append(out, row)
		tbl.Add(row.Workers, row.Jobs, ms(row.Wall), fmt.Sprintf("%.1f", row.JobsPerSec),
			row.P50, row.P99, row.AllDone, row.Invariant)
	}
	tbl.Note("jobs cycle through the registered enki applications; drain is the completion barrier")
	tbl.Render(w)
	return out, nil
}

// serviceApps lists the registered enki applications — small
// imperative extractions, the right unit of work for a throughput
// burst.
func serviceApps() []string {
	var out []string
	for _, name := range registry.Names() {
		if strings.HasPrefix(name, "enki/") {
			out = append(out, name)
		}
	}
	return out
}
