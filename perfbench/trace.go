package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"unmasque/internal/app"
	"unmasque/internal/obs"
)

// phases are the pipeline phases the per-layer metrics break down by,
// in pipeline order.
var phases = []string{
	"from-clause", "minimizer", "join-graph", "filters", "having", "projection",
	"group-by", "aggregation", "order-by", "limit", "checker",
}

// phaseOf maps a phase span (or ledger phase) name to its key in
// phases, following the Stats slot each step is timed into: the
// disjunction refinement counts as filters, the unified filters+having
// step as having, the static class check as checker. The assembler,
// which runs no probes and has no Stats slot, maps to "".
var phaseOf = map[string]string{
	"from-clause": "from-clause", "minimizer": "minimizer", "join-graph": "join-graph",
	"filters": "filters", "disjunctions": "filters", "filters+having": "having",
	"projection": "projection", "group-by": "group-by", "aggregation": "aggregation",
	"order-by": "order-by", "limit": "limit", "checker": "checker", "eqc-verify": "checker",
}

// layerTrace folds the traced attempts of a run into per-phase self
// time and invocations and the application layer's busy time.
type layerTrace struct {
	attempts    int
	phaseUS     map[string]int64
	selfUS      map[string]int64
	invocations map[string]int64
	// cacheHits and cacheEligible count the daemon's memoization
	// outcomes from its ledgers (the library reads Stats instead).
	cacheHits     int64
	cacheEligible int64
	busyUS        int64
	runs          int64
	timeouts      int64
	errors        int64
	violations    int
}

func newLayerTrace() *layerTrace {
	return &layerTrace{phaseUS: map[string]int64{}, selfUS: map[string]int64{}, invocations: map[string]int64{}}
}

// addSpans attributes the phase spans of one extraction, given the
// application runs in flight during it, all on the tracer's clock.
func (t *layerTrace) addSpans(spans []obs.SpanEvent, runs []interval) {
	t.attempts++
	for _, sp := range spans {
		if sp.Parent != 1 { // the root span has id 1; its children are the phases
			continue
		}
		key := phaseOf[sp.Name]
		if key == "" {
			continue
		}
		iv := interval{sp.StartUS, sp.StartUS + sp.DurUS}
		t.phaseUS[key] += sp.DurUS
		t.selfUS[key] += selfTime(iv, runs)
	}
}

// addLedger counts application invocations per phase: every ledger
// event that was not served by either cache tier ran the application.
func (t *layerTrace) addLedger(events []obs.ProbeEvent) {
	for _, ev := range events {
		if ev.Cache == obs.CacheHit || ev.Cache == obs.CacheDisk {
			continue
		}
		t.invocations[phaseOf[ev.Phase]]++
	}
}

// errLedger marks an attempt whose probe ledger breaks the invariant
// of one event per invocation, memory hit and disk hit.
var errLedger = errors.New("ledger invariant broken")

// checkLedger counts and returns a violation of the ledger invariant.
func (t *layerTrace) checkLedger(events int, invocations, memHits, diskHits int64) error {
	if int64(events) == invocations+memHits+diskHits {
		return nil
	}
	t.violations++
	return fmt.Errorf("%w: %d events != %d invocations + %d memory hits + %d disk hits",
		errLedger, events, invocations, memHits, diskHits)
}

// addLibrary folds one traced library extraction: the timing wrapper
// supplies the application runs, the ledger the per-phase invocations.
func (t *layerTrace) addLibrary(spans []obs.SpanEvent, ledger *obs.Ledger, wrap *timedExe, at *attempt) {
	t.addSpans(spans, wrap.runs)
	t.addLedger(ledger.Events())
	for _, r := range wrap.runs {
		t.busyUS += r.end - r.start
	}
	t.runs += int64(len(wrap.runs))
	t.timeouts += int64(wrap.timeouts)
	t.errors += int64(wrap.errors)
	if at.err == nil {
		s := at.stats
		if err := t.checkLedger(ledger.Len(), s.AppInvocations, s.CacheHits, s.DiskCacheHits); err != nil {
			at.err = err
		}
	}
}

// parseTrace splits a job's JSONL trace (Manager.WriteTrace) into its
// spans and ledger events.
func parseTrace(data []byte) ([]obs.SpanEvent, []obs.ProbeEvent, error) {
	var spans []obs.SpanEvent
	var probes []obs.ProbeEvent
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, nil, fmt.Errorf("trace line: %w", err)
		}
		switch head.Type {
		case obs.TypeSpan:
			var sp obs.SpanEvent
			if err := json.Unmarshal(line, &sp); err != nil {
				return nil, nil, fmt.Errorf("span line: %w", err)
			}
			spans = append(spans, sp)
		case obs.TypeProbe:
			var ev obs.ProbeEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				return nil, nil, fmt.Errorf("probe line: %w", err)
			}
			probes = append(probes, ev)
		}
	}
	return spans, probes, sc.Err()
}

// addDaemon folds one traced daemon job. Without a wrapper around the
// daemon's applications, the application runs are the ledger's
// non-cached events, which end at TSUS after DurUS; the ledger and the
// tracer of a job are created together, so they share the clock.
func (t *layerTrace) addDaemon(spans []obs.SpanEvent, probes []obs.ProbeEvent) {
	var runs []interval
	for _, ev := range probes {
		switch ev.Cache {
		case obs.CacheHit, obs.CacheDisk:
			t.cacheHits++
			t.cacheEligible++
			continue
		case obs.CacheMiss:
			t.cacheEligible++
		}
		runs = append(runs, interval{ev.TSUS - ev.DurUS, ev.TSUS})
		t.busyUS += ev.DurUS
		t.runs++
		switch {
		case ev.Err == app.ErrTimeout.Error():
			t.timeouts++
		case ev.Err != "":
			t.errors++
		}
	}
	t.addSpans(spans, runs)
	t.addLedger(probes)
}

// finish reports the trace-derived metrics, per traced attempt.
func (t *layerTrace) finish(rep *report) {
	n := t.attempts
	per := func(v int64) float64 { return float64(v) / float64(n) }
	for _, p := range phases {
		rep.add("core.self_ms."+p, "ms", per(t.selfUS[p])/1e3, n)
	}
	for _, p := range phases {
		rep.add("app.invocations."+p, "count", per(t.invocations[p]), n)
	}
	rep.add("app.busy_ms", "ms", per(t.busyUS)/1e3, n)
	msPer := 0.0
	if t.runs > 0 {
		msPer = float64(t.busyUS) / 1e3 / float64(t.runs)
	}
	rep.add("app.ms_per_invocation", "ms", msPer, int(t.runs))
	rep.add("app.timeouts", "count", per(t.timeouts), n)
	rep.add("app.errors", "count", per(t.errors), n)
	rep.add("obs.ledger_violations", "count", float64(t.violations), n)
}
