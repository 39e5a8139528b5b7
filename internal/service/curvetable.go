// Curve table: the shard-local memo of the RMA's first step. A decision
// is two steps — build every core's energy curve E(w), then settle the
// curves into per-core settings (the way-allocation DP for RM1/RM2/RM3,
// DVFS at the equal partition, or UCP then DVFS). In the service a core's
// statistics come from FillOracleStats, so they depend only on its
// (bench, phase); the managers run without feedback and with every core
// occupied. A curve is therefore a pure function of (bench, phase,
// scheme, model, that core's slack), and the database has few (bench,
// phase) pairs. Each table row is one (scheme, model, slack) and holds
// one curve per dense pair index, built the first time a query needs it.
// An uncached decide then costs n table reads plus the global step
// instead of n curve builds plus the global step.
//
// Every curve is built by the predictor and search space
// (core.SchemeLocalOptions) the manager would use and settled by
// core.SettleInto from the baseline a fresh manager starts at, the same
// tail Manager.DecideAll ends in, so table answers are bit-identical to
// the library for all six schemes. The self-checker (audit.go) re-derives
// sampled answers both through the table and on the fresh-manager path.
package service

import (
	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
)

// maxShardConfigs bounds each shard's curve table: one row per distinct
// (scheme, model, per-core slack). A client sweeping slack values would
// otherwise grow the table without limit until the next snapshot swap.
// On overflow every row is dropped; answers do not depend on history, so
// this costs only rebuilds.
const maxShardConfigs = 64

// curveKey identifies one table row: what a curve depends on beyond its
// (bench, phase).
type curveKey struct {
	scheme core.Scheme
	model  core.ModelKind
	slack  float64
}

// curveRow is one configuration's curves, indexed by dense (bench, phase)
// pair; an entry with no Options has not been built yet.
type curveRow struct {
	pred   core.Predictor
	opt    core.LocalOptions
	curves []core.Curve
}

// curveTable is one shard's table over the shard's adopted snapshot.
//
//qosrma:shardowned
type curveTable struct {
	sn     *snapshot
	rows   map[curveKey]*curveRow
	st     core.IntervalStats // statistics scratch for a curve build
	set    []*core.Curve      // one query's curves, by core
	misses [][]float64        // one query's miss profiles, by core (UCP)
	ways   core.WaysScratch
}

func newCurveTable(sn *snapshot) *curveTable {
	n := sn.db.Sys.NumCores
	return &curveTable{
		sn:     sn,
		rows:   make(map[curveKey]*curveRow, 4),
		set:    make([]*core.Curve, n),
		misses: make([][]float64, n),
	}
}

// decide answers a query: it reads (building on first use) each core's
// curve and settles them with core.SettleInto, starting from the
// baseline a fresh manager holds. Static decides nothing and touches no
// row. The settings are a fresh slice, as Manager.Settings returns,
// because the LRU retains them.
//
//qosrma:noalloc
func (t *curveTable) decide(k queryKey) ([]arch.Setting, bool) {
	scheme := k.scheme()
	if scheme == core.SchemeStatic {
		return nil, false
	}
	db := t.sn.db
	var (
		row      *curveRow
		rowSlack float64
	)
	for i := range t.set {
		slack := k.slack(i)
		if row == nil || slack != rowSlack {
			row, rowSlack = t.row(curveKey{scheme: scheme, model: k.model(), slack: slack}), slack
		}
		id, phase := k.bench(i), k.phase(i)
		c := &row.curves[t.sn.pairBase[id]+phase]
		if len(c.Options) == 0 {
			// First use of this (bench, phase) under this configuration.
			// Curve.Core records core 0; the global step never reads it.
			FillOracleStats(db, id, phase, 0, &t.st)
			row.pred.BuildCurveInto(&t.st, row.opt, c)
		}
		t.set[i] = c
		t.misses[i] = db.RecordAt(id, phase).Misses
	}
	return core.SettleInto(baselineSettings(db), &db.Sys, scheme, t.set, t.misses, &t.ways)
}

// row returns the table row for k, creating an empty one on first use
// (and dropping every row first when the table is at its cap).
func (t *curveTable) row(k curveKey) *curveRow {
	if r, ok := t.rows[k]; ok {
		return r
	}
	if len(t.rows) >= maxShardConfigs {
		clear(t.rows)
	}
	db := t.sn.db
	r := &curveRow{
		pred:   core.Predictor{Sys: &db.Sys, Power: power.DefaultParams(db.Sys), Kind: k.model},
		opt:    core.SchemeLocalOptions(db.Sys, k.scheme, k.slack),
		curves: make([]core.Curve, t.sn.pairBase[len(db.Benches)]),
	}
	t.rows[k] = r
	return r
}
