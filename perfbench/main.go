// Command perfbench is the repository's extraction benchmark. It runs
// one of three closed-loop workloads from a single process and prints
// its metrics, the last line of standard output being one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Workloads:
//
//   - tpch-extract: the 12 TPC-H hidden queries plus H1-H3 (HAVING
//     pipeline) on the registry instance, extracted one after another
//     through core.ExtractContext with core.DefaultConfig().
//   - job-extract: the 11 JOB queries on the 21-table IMDB schema, same
//     client and configuration.
//   - daemon-rerun: the 44 imperative Enki/Wilos/RUBiS applications
//     submitted by name to an in-process service.Manager with a durable
//     job store and probe cache in a fresh directory per round; each
//     round extracts every app on the empty cache, then repeats it.
//
// With -trace 0 the metrics are the end-to-end ones: CPU, counts and
// memory, which hold still on a shared host. Wall-clock latency and
// throughput are printed beside them and reported, with the rest of
// the per-layer breakdown, by a traced run (-trace 1: tracer, ledger
// and a timing wrapper attached, alternating with untraced passes). Every
// extracted query is re-executed on its instance and compared with the
// application's own result; a mismatch makes "correct" false.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tpch-extract --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "tpch-extract, job-extract or daemon-rerun")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated instances")
	flag.IntVar(&secs, "seconds", 20, "nominal measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}

	rep := newReport()
	ctx := context.Background()
	var err error
	switch o.workload {
	case "tpch-extract", "job-extract":
		err = runLibrary(ctx, o, rep)
	case "daemon-rerun":
		err = runDaemon(ctx, o, rep)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, environment(o))
}

// seedStream draws the instance seeds of a run's passes from its -seed,
// so the same seed gives the same inputs while one run still averages
// over many instances. Seeds are positive: the service reads 0 as 1.
type seedStream struct{ r *rand.Rand }

func newSeedStream(seed int64) *seedStream { return &seedStream{rand.New(rand.NewSource(seed))} }

func (s *seedStream) next() int64 { return s.r.Int63n(1<<20) + 1 }

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	samples    int
}

// report collects a run's metrics, attempt counts and notes.
type report struct {
	metrics []metric
	// shown are figures printed for a reader but left out of the
	// result object.
	shown     []metric
	notes     []string
	failures  map[string]string
	attempted int
	failed    int
	correct   bool
	// runs describes the passes or rounds measured, for the
	// environment stamp.
	runs map[string]any
}

func newReport() *report { return &report{correct: true, failures: map[string]string{}} }

func (r *report) add(name, unit string, v float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, v, samples})
}

func (r *report) show(ms ...metric) { r.shown = append(r.shown, ms...) }

func (r *report) note(k, v string) { r.notes = append(r.notes, k+": "+v) }

// count tallies one attempt; err is its failure, if any.
func (r *report) count(app string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures[app] = err.Error()
	}
}

// incorrect records an output that failed the correctness gate.
func (r *report) incorrect(app string, err error) {
	r.correct = false
	r.note("INCORRECT", app+": "+err.Error())
}

// print writes the human-readable lines, the environment stamp and,
// last, the result object. A +Inf quantile (more failures than the
// quantile leaves room for) is printed as the largest float64; a
// metric without samples as 0.
func (r *report) print(f *os.File, env map[string]any) {
	for _, n := range r.notes {
		fmt.Fprintln(f, "#", n)
	}
	for _, app := range sortedKeys(r.failures) {
		fmt.Fprintf(f, "# failed: %s: %s\n", app, r.failures[app])
	}
	fmt.Fprintf(f, "# attempted %d, failed %d (failed_frac %.4f), correct %v\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.correct)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range r.metrics {
		v := m.value
		switch {
		case math.IsInf(v, 1):
			v = math.MaxFloat64
		case math.IsNaN(v):
			v = 0
		}
		fmt.Fprintf(f, "# %-40s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		out[m.name] = value{v, m.unit}
	}
	for _, m := range r.shown {
		fmt.Fprintf(f, "# %-40s %14.4f %-8s n=%d (per-layer)\n", m.name, m.value, m.unit, m.samples)
	}
	env["runs"] = r.runs
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(f, "#", string(envLine))
	res, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	fmt.Fprintln(f, string(res))
}

// procCPU is the process's user plus system CPU time in nanoseconds.
func procCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
