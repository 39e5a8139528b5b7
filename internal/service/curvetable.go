// Curve table: the shard-local memo of the RMA's first step. A
// coordinated decision (RM1/RM2/RM3) is two steps — build every core's
// energy curve E(w), then reduce the curves to a global way allocation.
// In the service a core's statistics come from FillOracleStats, so they
// depend only on its (bench, phase); the managers run without feedback
// and with every core occupied. A curve is therefore a pure function of
// (bench, phase, scheme, model, that core's slack), and the database has
// few (bench, phase) pairs. Each table row is one (scheme, model, slack)
// and holds one curve per dense pair index, built the first time a query
// needs it. An uncached decide then costs n table reads plus the
// way-allocation DP instead of n curve builds plus the DP.
//
// Every curve is built by the predictor and search space
// (core.SchemeLocalOptions) the manager would use and reduced by the same
// core.ReduceInto tail as Manager.DecideAll, so table answers are
// bit-identical to the library. The self-checker (audit.go) re-derives
// sampled answers both through the table and on the fresh-manager path.
package service

import (
	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
)

// maxShardConfigs bounds each shard's per-configuration state: its
// manager pool (one entry per distinct slack vector) and its curve-table
// rows (one per distinct per-core slack). A client sweeping slack values
// would otherwise grow both without limit until the next snapshot swap.
// On overflow the whole map is dropped; answers do not depend on history,
// so this costs only rebuilds.
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
	sn   *snapshot
	rows map[curveKey]*curveRow
	st   core.IntervalStats // statistics scratch for a curve build
	set  []*core.Curve      // one query's curves, by core
	ways core.WaysScratch
}

func newCurveTable(sn *snapshot) *curveTable {
	return &curveTable{
		sn:   sn,
		rows: make(map[curveKey]*curveRow, 4),
		set:  make([]*core.Curve, sn.db.Sys.NumCores),
	}
}

// tableScheme reports whether the scheme's decision is served from the
// curve table: the coordinated schemes, whose DecideAll is exactly
// "build every curve, reduce". Static, DVFS-only and UCP keep the
// manager path.
func tableScheme(s core.Scheme) bool {
	switch s {
	case core.SchemePartitionOnly, core.SchemeCoordDVFSCache, core.SchemeCoordCoreDVFSCache:
		return true
	case core.SchemeStatic, core.SchemeDVFSOnly, core.SchemeUCPDVFS:
	}
	return false
}

// decide answers a coordinated-scheme query: it reads (building on first
// use) each core's curve and reduces them. The settings are a fresh
// slice, as Manager.Settings returns, because the LRU retains them.
//
//qosrma:noalloc
func (t *curveTable) decide(k queryKey) ([]arch.Setting, bool) {
	var (
		row      *curveRow
		rowSlack float64
	)
	for i := range t.set {
		slack := k.slack(i)
		if row == nil || slack != rowSlack {
			row, rowSlack = t.row(curveKey{scheme: k.scheme(), model: k.model(), slack: slack}), slack
		}
		id, phase := k.bench(i), k.phase(i)
		c := &row.curves[t.sn.pairBase[id]+phase]
		if len(c.Options) == 0 {
			// First use of this (bench, phase) under this configuration.
			// Curve.Core records core 0; the reduction never reads it.
			FillOracleStats(t.sn.db, id, phase, 0, &t.st)
			row.pred.BuildCurveInto(&t.st, row.opt, c)
		}
		t.set[i] = c
	}
	return core.ReduceInto(nil, t.set, t.sn.db.Sys.LLC.Assoc, &t.ways)
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
