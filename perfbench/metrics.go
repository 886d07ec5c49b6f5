package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// samples. A failed attempt is passed as +Inf, so it counts as
// missing every latency limit: once more than (1-p) of the attempts
// fail, the quantile itself is +Inf. An empty sample set yields NaN.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open time range in microseconds on one clock.
type interval struct{ start, end int64 }

// covered is the total length of the union of the intervals clipped
// to [lo, hi): overlapping probes (the scheduler runs several at once)
// are counted once.
func covered(lo, hi int64, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a phase span's own time: its duration minus the part of
// it during which at least one application run was in flight.
func selfTime(span interval, probes []interval) int64 {
	return span.end - span.start - covered(span.start, span.end, probes)
}

// block is one pass (library workloads) or round (daemon) of a run:
// one instance of every application, generated from one seed. Every
// time is taken per block and reported as the median over the run's
// blocks, so a burst of load from elsewhere on the machine moves only
// the blocks it overlaps and not the result.
type block struct {
	// lat holds every attempt's latency in ms, +Inf when it failed.
	lat   []float64
	wallS float64
	cpuNS int64
	// setupCPUNS is the process CPU of the block's set-up, datagenNS
	// the wall time of its generator calls.
	setupCPUNS int64
	datagenNS  int64
	ok         int
}

// passes is the number of blocks a run makes: as many as fit in the
// measured time at the nominal block length, at least minBlocks, and
// enough for minAttempts attempts of perBlock each. The count depends
// only on -seconds, never on the machine's speed, so a given -seed and
// -seconds always measure the same set of instances.
func passes(seconds, nominal time.Duration, perBlock int) int {
	return max(minBlocks, int(seconds/nominal), (minAttempts+perBlock-1)/perBlock)
}

const (
	// minBlocks keeps the medians over blocks meaningful on short runs.
	minBlocks = 5
	// minAttempts is the fewest attempts an untraced run makes.
	minAttempts = 100
)

// endToEnd reports the bounded user-visible metrics of a run's untraced
// blocks: costs in process CPU, counts and memory. inv holds the
// application invocations of every successful extraction.
//
// Process CPU is the cost a user pays and moves far less than wall
// time when other tenants of a shared host take CPU from this one: on a
// 2-vCPU guest whose steal time varied between runs from 0 to 37%,
// wall-clock latency varied by up to 2.4 times from run to run while
// CPU per extraction moved by at most 28%.
func endToEnd(rep *report, blocks []block, inv []int64) {
	var cpus, setups []float64
	n, ok := 0, 0
	for _, b := range blocks {
		cpus = append(cpus, float64(b.cpuNS)/1e6/float64(len(b.lat)))
		setups = append(setups, float64(b.setupCPUNS)/1e9)
		n += len(b.lat)
		ok += b.ok
	}
	var sum int64
	for _, v := range inv {
		sum += v
	}
	nb := len(blocks)
	rep.add("cpu_ms_per_extraction", "ms", median(cpus), nb)
	rep.add("app_invocations_per_extraction", "count", float64(sum)/float64(len(inv)), len(inv))
	rep.add("correct_frac", "fraction", float64(ok)/float64(n), n)
	rep.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.add("setup_s", "s", median(setups), nb)
}

// wallClock is what a user waits for: throughput and latency quantiles
// in wall time, each the median over the blocks of the block's figure.
// Taking the quantiles per block keeps a failure that only some
// instances show from moving them. Printed with every run, they are
// per-layer metrics of the traced run because they follow the host's
// steal time (see endToEnd).
func wallClock(blocks []block) []metric {
	var rates, p50s, p90s, gens []float64
	for _, b := range blocks {
		rates = append(rates, float64(b.ok)/b.wallS)
		p50s = append(p50s, percentile(b.lat, 0.5))
		p90s = append(p90s, percentile(b.lat, 0.9))
		gens = append(gens, float64(b.datagenNS)/1e6)
	}
	nb := len(blocks)
	return []metric{
		{"extractions_per_s", "1/s", median(rates), nb},
		{"latency_ms_p50", "ms", median(p50s), nb},
		{"latency_ms_p90", "ms", median(p90s), nb},
		{"setup.datagen_ms", "ms", median(gens), nb},
	}
}
