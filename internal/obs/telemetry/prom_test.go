package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// promRegistry builds the fixed registry the golden file pins.
func promRegistry() *obs.Metrics {
	m := obs.NewMetrics()
	m.Counter("probes_total").Add(42)
	m.Counter("app_invocations").Add(30)
	m.Counter("cache_hit").Add(12)
	m.Counter("phase_probes.from-clause").Add(8)
	m.Counter("phase_probes.filters").Add(22)
	m.Counter("phase_probes.projection").Add(12)
	m.Counter("engine_join_builds_reused").Add(100)
	m.Gauge("queue_depth").Set(3)
	m.Gauge("jobs_running").Set(2)
	h := m.Histogram("probe_latency_ms")
	for _, v := range []float64{0.05, 0.2, 0.2, 0.9, 3, 40, 4000, 99999} {
		h.Observe(v)
	}
	ph := m.Histogram("phase_ms.filters")
	ph.Observe(12.5)
	ph.Observe(0.5)
	return m
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promRegistry()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics_golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	m := promRegistry()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same registry differ")
	}
}

func TestWritePrometheusRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promRegistry()); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("encoder output rejected by the parser: %v", err)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	pp, ok := byName["unmasque_phase_probes"]
	if !ok || pp.Type != "counter" || len(pp.Samples) != 3 {
		t.Fatalf("phase_probes family wrong: %+v", pp)
	}
	var phases []string
	for _, s := range pp.Samples {
		phases = append(phases, s.Labels["phase"])
	}
	if strings.Join(phases, ",") != "filters,from-clause,projection" {
		t.Errorf("label ordering not deterministic: %v", phases)
	}
	lat, ok := byName["unmasque_probe_latency_ms"]
	if !ok || lat.Type != "histogram" {
		t.Fatalf("latency histogram missing: %+v", byName)
	}
	if g, ok := byName["unmasque_queue_depth"]; !ok || g.Type != "gauge" || g.Samples[0].Value != 3 {
		t.Errorf("gauge family wrong: %+v", g)
	}
}

func TestWritePrometheusHistogramCumulative(t *testing.T) {
	m := obs.NewMetrics()
	h := m.Histogram("lat")
	h.Observe(0.05) // bucket le=0.1
	h.Observe(0.2)  // bucket le=0.25
	h.Observe(7000) // overflow
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`unmasque_lat_bucket{le="0.1"} 1`,
		`unmasque_lat_bucket{le="0.25"} 2`,
		`unmasque_lat_bucket{le="5000"} 2`,
		`unmasque_lat_bucket{le="+Inf"} 3`,
		`unmasque_lat_sum 7000.25`,
		`unmasque_lat_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry rendered %q", buf.String())
	}
	if err := WritePrometheus(&buf, obs.NewMetrics()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry rendered %q", buf.String())
	}
}

func TestWritePrometheusTypeConflict(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter("x").Add(1)
	m.Gauge("x").Set(2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m); err == nil {
		t.Error("conflicting counter/gauge name must error, not emit an invalid document")
	}
}

func TestWritePrometheusSanitizesNames(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter("weird-name with spaces").Add(1)
	m.Counter("phase_probes.group-by").Add(2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "unmasque_weird_name_with_spaces 1") {
		t.Errorf("name not sanitized:\n%s", out)
	}
	if !strings.Contains(out, `unmasque_phase_probes{phase="group-by"} 2`) {
		t.Errorf("label value must keep its raw form:\n%s", out)
	}
	if _, err := ParsePromText(strings.NewReader(out)); err != nil {
		t.Errorf("sanitized output rejected: %v", err)
	}
}
