package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}}
	for _, c := range cases {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	// 100 attempts, 9 failed: the p90 is still a real latency.
	var s []float64
	for i := 1; i <= 91; i++ {
		s = append(s, float64(i))
	}
	for i := 0; i < 9; i++ {
		s = append(s, inf)
	}
	if got := percentile(s, 0.9); got != 90 {
		t.Errorf("p90 with 9%% failures = %v, want 90", got)
	}
	// At exactly 10% failed the p90 is the slowest success; one more
	// failure and the p90 itself misses every limit.
	s[90] = inf
	if got := percentile(s, 0.9); got != 90 {
		t.Errorf("p90 with 10%% failures = %v, want 90", got)
	}
	s[89] = inf
	if got := percentile(s, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11%% failures = %v, want +Inf", got)
	}
	if got := percentile(s, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfProbes(t *testing.T) {
	span := interval{100, 200}
	cases := []struct {
		name   string
		probes []interval
		want   int64
	}{
		{"no probes", nil, 100},
		{"disjoint", []interval{{110, 120}, {130, 150}}, 70},
		{"overlapping parallel probes count once", []interval{{110, 150}, {120, 160}, {155, 158}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the span", []interval{{50, 120}, {180, 260}}, 60},
		{"outside the span", []interval{{10, 90}, {200, 300}}, 100},
		{"touching intervals", []interval{{110, 120}, {120, 130}}, 80},
		{"covers everything", []interval{{0, 1000}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(span, c.probes); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWallClockTakesQuantilesPerBlock(t *testing.T) {
	inf := math.Inf(1)
	// Ten queries per block, the slowest at 100 ms. One block loses a
	// fast query to a failure: its own p90 jumps to the slowest query,
	// but the median over the blocks stays at the second slowest.
	fast := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	failed := []float64{inf, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	blocks := []block{
		{lat: fast, wallS: 1, ok: 10},
		{lat: failed, wallS: 2, ok: 9},
		{lat: fast, wallS: 1, ok: 10},
	}
	got := map[string]float64{}
	for _, m := range wallClock(blocks) {
		got[m.name] = m.value
		if m.samples != len(blocks) {
			t.Errorf("%s has %d samples, want %d", m.name, m.samples, len(blocks))
		}
	}
	want := map[string]float64{"latency_ms_p90": 9, "latency_ms_p50": 5, "extractions_per_s": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

func TestPassesDependOnlyOnSeconds(t *testing.T) {
	cases := []struct {
		seconds, nominal time.Duration
		perBlock, want   int
	}{
		{20 * time.Second, time.Second, 11, 20},
		{time.Second, time.Second, 11, 10}, // 100 attempts need 10 passes
		{time.Second, time.Second, 88, minBlocks},
		{20 * time.Second, 3750 * time.Millisecond, 15, 7},
	}
	for _, c := range cases {
		if got := passes(c.seconds, c.nominal, c.perBlock); got != c.want {
			t.Errorf("passes(%v, %v, %d) = %d, want %d", c.seconds, c.nominal, c.perBlock, got, c.want)
		}
	}
}
