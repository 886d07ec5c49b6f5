package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

// extractFromClause identifies T_E, the set of tables referenced by
// the hidden query (Section 4.1). A rename probe renames a set of
// candidate tables and re-runs the application: an immediate
// missing-table fault means the set holds at least one query table,
// while a completed run clears the whole set.
//
// The sets are chosen by adaptive group testing. The catalog is walked
// in order in consecutive groups, starting with groups of two; a clean
// group doubles the next group's size, a faulting one is split in
// halves recursively until its query tables are isolated and halves
// the next group's size. When the left half of a faulting group comes
// back clean, the right half must fault and is split without a probe
// of its own. Every negative probe re-runs the hidden query on the
// full, unminimized D_I, so this cuts the expensive runs from one per
// non-query table to about one per maximal clean group.
//
// The method is sound under the determinism assumption the run cache
// already makes: until the application touches a renamed table it
// runs exactly as on D_I, so a group faults iff the clean run reads
// one of its tables. Probes run one after another — the next group
// depends on the last verdict — so at most one full-instance run is in
// flight. Each probe runs against a shared-row clone of the provided
// instance (sqldb.CloneShared) carrying only its renames, which costs
// O(tables) setup regardless of instance size. The working silo is
// built afterwards with sqldb.CloneTables: every table's schema, and
// rows only for T_E, which the silo shares with the provided instance
// instead of copying. The minimizer's sampling and halving only
// rearrange row sets, so nothing is copied until D_1 stands; the
// minimizer then deep-copies its few surviving rows before any later
// phase can write to them.
func (s *Session) extractFromClause() error {
	names := s.source.TableNames()
	gt := &groupTester{s: s}
	size := 2
	for i := 0; i < len(names); {
		group := names[i:min(i+size, len(names))]
		i += len(group)
		faults, err := gt.probe(group)
		if err != nil {
			return err
		}
		if !faults {
			size *= 2
			continue
		}
		if err := gt.isolate(group); err != nil {
			return err
		}
		size = max(1, size/2)
	}
	if len(s.tables) == 0 {
		return fmt.Errorf("no query tables detected; does the application read this database?")
	}
	// Build the silo: every table's schema, but rows only for T_E
	// (referential constraints are irrelevant — the engine does not
	// enforce them, matching the paper's dropped-RI silo).
	return s.timed(&s.stats.SiloSetup, func() error {
		relevant := map[string]bool{}
		for _, t := range s.tables {
			relevant[t] = true
		}
		s.silo = s.source.CloneTables(relevant)
		for _, t := range s.tables {
			tbl, err := s.silo.Table(t)
			if err != nil {
				return err
			}
			s.schemas[t] = tbl.Schema.Clone()
		}
		return nil
	})
}

// groupTester issues the from-clause rename probes of one session and
// numbers them, so every probe gets its own span in the trace.
type groupTester struct {
	s      *Session
	probes int
}

// isolate appends the query tables of a faulting group to T_E in
// catalog order, splitting the group in halves until each query table
// is a faulting singleton.
func (g *groupTester) isolate(group []string) error {
	if len(group) == 1 {
		g.s.tables = append(g.s.tables, group[0])
		return nil
	}
	left, right := group[:len(group)/2], group[len(group)/2:]
	leftFaults, err := g.probe(left)
	if err != nil {
		return err
	}
	if leftFaults {
		if err := g.isolate(left); err != nil {
			return err
		}
		rightFaults, err := g.probe(right)
		if err != nil || !rightFaults {
			return err
		}
	}
	// A clean left half puts the group's fault in the right half.
	return g.isolate(right)
}

// probe renames every table of group, each to its own temporary name,
// and reports whether the application faults on a missing table.
//
// A timeout is inconclusive: the application may simply be slow to
// reach a renamed table. The same probe is re-run with the deadline
// doubled, starting at Config.ProbeTimeout and capped at
// Config.ExecTimeout; each attempt is one ledger event. A probe that
// still times out at the cap fails the phase, naming the undecided
// tables. Cancellation of the session context is observed before
// every probe.
func (g *groupTester) probe(group []string) (faults bool, err error) {
	s := g.s
	if err := s.ctx.Err(); err != nil {
		return false, err
	}
	pc := &probeCtx{index: g.probes, span: s.phaseSpan.Child("probe", g.probes)}
	g.probes++
	defer func() { pc.span.EndErr(err) }()
	db := s.source.CloneShared()
	for i, t := range group {
		if err := db.RenameTable(t, fmt.Sprintf("unmasque_probe_tmp_%d", i)); err != nil {
			return false, err
		}
	}
	tables := strings.Join(group, ",")
	for timeout := s.cfg.ProbeTimeout; ; timeout = min(2*timeout, s.cfg.ExecTimeout) {
		_, err := s.runRenameProbe(pc, db, tables, timeout)
		switch {
		case err == nil:
			return false, nil
		case errors.Is(err, sqldb.ErrNoSuchTable):
			return true, nil
		case errors.Is(err, app.ErrTimeout):
			if timeout >= s.cfg.ExecTimeout {
				return false, fmt.Errorf("tables %s undecided: %w at the %v execution cap", tables, err, s.cfg.ExecTimeout)
			}
		default:
			// Any other failure is unexpected at this stage — the
			// application ran on an intact (modulo rename) instance.
			return false, fmt.Errorf("probing tables %s: %w", tables, err)
		}
	}
}

// runRenameProbe executes one from-clause rename probe of the given
// comma-joined table set under the given deadline, serving it from the
// durable cross-job cache when one is attached. Rename probes never
// consult the in-session run cache (no two probes rename the same
// set), so they record their ledger event here; a missing-table fault
// IS the observation, not an incident. Timeouts are never persisted
// (they describe the environment, not (E, D)); a deterministic
// outcome — the missing-table fault of a positive probe, or the
// negative probe's completed result — is, so a warm daemon repeating
// an extraction invokes E zero times.
func (s *Session) runRenameProbe(pc *probeCtx, probe *sqldb.Database, tables string, timeout time.Duration) (*sqldb.Result, error) {
	diskOK := s.cache != nil && s.shared != nil && probe.TotalRows() <= diskCacheMaxRows
	if !diskOK {
		start := s.cfg.Clock()
		res, err := app.RunCtx(s.ctx, s.exe, probe, timeout)
		s.observe(pc, obs.ProbeEvent{Kind: obs.KindRename, Table: tables, Cache: obs.CacheNone},
			res, err, s.cfg.Clock().Sub(start))
		return res, err
	}
	fp := probe.Fingerprint()
	start := s.cfg.Clock()
	if res, err, ok := s.shared.Get(fp); ok {
		s.cache.diskHits.Add(1)
		s.observe(pc, obs.ProbeEvent{Kind: obs.KindRename, Table: tables, FP: fp.Hex(), Cache: obs.CacheDisk},
			res, err, s.cfg.Clock().Sub(start))
		return res, err
	}
	s.cache.misses.Add(1)
	res, err := app.RunCtx(s.ctx, s.exe, probe, timeout)
	s.observe(pc, obs.ProbeEvent{Kind: obs.KindRename, Table: tables, FP: fp.Hex(), Cache: obs.CacheMiss},
		res, err, s.cfg.Clock().Sub(start))
	if !errors.Is(err, app.ErrTimeout) && !isCtxErr(err) {
		s.shared.Put(fp, res, err)
	}
	return res, err
}
