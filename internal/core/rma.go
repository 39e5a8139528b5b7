package core

import (
	"fmt"

	"qosrma/internal/arch"
	"qosrma/internal/cache"
	"qosrma/internal/power"
)

// Scheme identifies a resource-management algorithm evaluated in the paper.
type Scheme int

const (
	// SchemeStatic keeps the baseline allocation (the QoS reference).
	SchemeStatic Scheme = iota
	// SchemeDVFSOnly controls only per-core frequency at the fixed equal
	// partition. Under QoS targets defined by the baseline it has no room
	// to scale down (the paper notes it "cannot save energy without
	// degrading the performance").
	SchemeDVFSOnly
	// SchemePartitionOnly (RM1) repartitions the LLC at the baseline
	// frequency and size, subject to QoS feasibility.
	SchemePartitionOnly
	// SchemeCoordDVFSCache (RM2) coordinates per-core DVFS with LLC
	// partitioning — the IPDPS 2019 / Paper I contribution.
	SchemeCoordDVFSCache
	// SchemeCoordCoreDVFSCache (RM3) additionally reconfigures the core
	// micro-architecture — the Paper II contribution.
	SchemeCoordCoreDVFSCache
	// SchemeUCPDVFS is the uncoordinated design the paper argues against:
	// the LLC is partitioned by miss-minimizing UCP lookahead with no
	// notion of per-application QoS, and an independent QoS-aware DVFS
	// controller then picks each core's minimum feasible frequency given
	// whatever allocation it was handed.
	SchemeUCPDVFS
)

// String names the scheme as the papers do.
func (s Scheme) String() string {
	switch s {
	case SchemeStatic:
		return "Static"
	case SchemeDVFSOnly:
		return "DVFS-only"
	case SchemePartitionOnly:
		return "RM1-Partitioning"
	case SchemeCoordDVFSCache:
		return "RM2-DVFS+Cache"
	case SchemeCoordCoreDVFSCache:
		return "RM3-Core+DVFS+Cache"
	case SchemeUCPDVFS:
		return "UCP+DVFS-uncoord"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config configures a resource manager instance.
type Config struct {
	Sys    arch.SystemConfig
	Power  power.Params
	Scheme Scheme
	Model  ModelKind
	// Slack is the per-core QoS relaxation (fraction of tolerated
	// execution-time increase); nil means zero for every core.
	Slack []float64
	// Feedback enables the phase-history MLP table (the thesis' software
	// alternative to the MLP-ATD hardware; see FeedbackTable).
	Feedback bool
}

// Manager is the online resource manager. It retains the most recent energy
// curve per core (the paper's "other cores already available" state) and,
// on each invocation, rebuilds the invoking core's curve and re-runs the
// global optimization.
type Manager struct {
	cfg       Config
	pred      Predictor
	curves    []*Curve // per core: the last curve built from its statistics
	settings  []arch.Setting
	feedback  []*FeedbackTable // per core; nil when disabled
	lastStats []*IntervalStats // per core; UCP rebuilds every curve from them

	localOpts []LocalOptions // per-core search space, precomputed
	ways      WaysScratch    // reusable global-reduction state

	// Scratch handed to SettleInto: the curve set of one decision (a
	// core's own curve, the idle curve or nil) and the miss profiles UCP
	// partitions by.
	decision []*Curve
	misses   [][]float64
	// single is the statistics vector Decide passes to DecideAll: nil
	// except for the invoker's entry while a call runs.
	single []*IntervalStats

	// occupied tracks which cores currently host an application (all of
	// them in the classic closed-world simulation). Vacant cores take no
	// part in the QoS optimization: they contribute the shared idle curve,
	// which absorbs surplus cache ways at zero cost.
	occupied []bool
	vacant   int       // number of unoccupied cores
	idle     *Curve    // shared zero-cost stand-in curve for vacant cores
	zeroProf []float64 // all-zero miss profile for vacant cores (UCP)

	// Invocations counts Decide calls (diagnostics).
	Invocations int
}

// NewManager builds a resource manager with every core at the baseline
// setting.
func NewManager(cfg Config) *Manager {
	n := cfg.Sys.NumCores
	if cfg.Slack == nil {
		cfg.Slack = make([]float64, n)
	}
	if len(cfg.Slack) != n {
		panic("core: slack vector length mismatch")
	}
	m := &Manager{
		cfg:       cfg,
		pred:      Predictor{Sys: &cfg.Sys, Power: cfg.Power, Kind: cfg.Model},
		curves:    make([]*Curve, n),
		settings:  make([]arch.Setting, n),
		lastStats: make([]*IntervalStats, n),
		localOpts: make([]LocalOptions, n),
		decision:  make([]*Curve, n),
		misses:    make([][]float64, n),
		single:    make([]*IntervalStats, n),
		occupied:  make([]bool, n),
		idle:      IdleCurve(cfg.Sys.LLC.Assoc, cfg.Sys.BaselineSetting()),
		zeroProf:  make([]float64, cfg.Sys.LLC.Assoc+1),
	}
	for i := range m.occupied {
		m.occupied[i] = true
	}
	if cfg.Feedback {
		m.feedback = make([]*FeedbackTable, n)
		for i := range m.feedback {
			m.feedback[i] = NewFeedbackTable(cfg.Sys.LLC.Assoc)
		}
	}
	for i := range m.settings {
		m.settings[i] = cfg.Sys.BaselineSetting()
	}
	for i := range m.localOpts {
		m.localOpts[i] = SchemeLocalOptions(cfg.Sys, cfg.Scheme, cfg.Slack[i])
	}
	return m
}

// Settings returns the currently applied per-core settings.
func (m *Manager) Settings() []arch.Setting {
	return append([]arch.Setting(nil), m.settings...)
}

// Slack returns the QoS relaxation configured for a core.
func (m *Manager) Slack(core int) float64 { return m.cfg.Slack[core] }

// Vacate marks the core unoccupied and clears its management state — the
// retained energy curve, the last interval statistics and the phase-history
// feedback table — so a later application placed on the core inherits
// nothing from its predecessor. The core is parked at the baseline setting
// and thereafter contributes a zero-cost curve to the global optimization
// (its cache ways become surplus the occupied cores can claim). Used by the
// open-system cluster simulator when a job departs.
func (m *Manager) Vacate(core int) {
	if !m.occupied[core] {
		return
	}
	m.occupied[core] = false
	m.vacant++
	m.curves[core] = nil
	m.lastStats[core] = nil
	if m.feedback != nil {
		m.feedback[core] = NewFeedbackTable(m.cfg.Sys.LLC.Assoc)
	}
	m.settings[core] = m.cfg.Sys.BaselineSetting()
}

// Occupy marks the core occupied again (a new application was placed on
// it). The core stays at the baseline setting until its first completed
// interval gives the manager statistics to optimize with.
func (m *Manager) Occupy(core int) {
	if m.occupied[core] {
		return
	}
	m.occupied[core] = true
	m.vacant--
}

// Occupied reports whether an application currently occupies the core.
func (m *Manager) Occupied(core int) bool { return m.occupied[core] }

// Rebaseline returns every core to the baseline allocation — the safe
// equal partition an arrival falls back to until fresh statistics let the
// optimization repartition — and returns the settings for the simulator to
// apply (charging reconfiguration overheads where allocations change).
func (m *Manager) Rebaseline() []arch.Setting {
	for i := range m.settings {
		m.settings[i] = m.cfg.Sys.BaselineSetting()
	}
	return m.Settings()
}

// Scheme returns the configured scheme.
func (m *Manager) Scheme() Scheme { return m.cfg.Scheme }

// FeedbackFor exposes a core's phase-history table (nil when the feedback
// extension is disabled). Diagnostics only.
func (m *Manager) FeedbackFor(core int) *FeedbackTable {
	if m.feedback == nil {
		return nil
	}
	return m.feedback[core]
}

// SchemeLocalOptions is the per-core search space of a scheme on sys
// for a core with the given QoS slack: the (size, frequency) candidates,
// the frequency rule and the way cap that leaves every co-runner one way.
// It is the single definition the Manager (once per core, in NewManager)
// and the decision service's curve table share, so a curve built from it
// is the curve DecideAll would build for that core.
func SchemeLocalOptions(sys arch.SystemConfig, scheme Scheme, slack float64) LocalOptions {
	opt := LocalOptions{
		Slack:   slack,
		MaxWays: sys.LLC.Assoc - (sys.NumCores - 1),
	}
	switch scheme {
	case SchemeStatic:
		// Static never re-decides — Decide answers before consulting the
		// search space — so only the shape matters: pin the baseline point.
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
		opt.Freqs = []int{sys.BaselineFreqIdx}
	case SchemePartitionOnly:
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
		opt.Freqs = []int{sys.BaselineFreqIdx}
	case SchemeDVFSOnly, SchemeUCPDVFS:
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
	case SchemeCoordDVFSCache:
		opt.Sizes = []arch.CoreSize{sys.BaselineSize}
	case SchemeCoordCoreDVFSCache:
		opt.Sizes = []arch.CoreSize{arch.SizeSmall, arch.SizeMedium, arch.SizeLarge}
		opt.MinEnergyFreq = true
	}
	if opt.Freqs == nil {
		// Materialize the "all frequencies" default once so
		// BuildCurveInto never allocates the index slice per invocation.
		opt.Freqs = make([]int, len(sys.DVFS))
		for i := range opt.Freqs {
			opt.Freqs[i] = i
		}
	}
	return opt
}

// localOptions returns the per-core search space for the configured
// scheme. With vacancies, the per-core way cap widens to reserve one way
// only per *occupied* co-runner, so a lightly loaded machine can actually
// grant a tenant the ways its idle neighbours released (curves built
// before an occupancy change keep their narrower cap until their core's
// next rebuild — transiently conservative, never infeasible, and the
// closed-world path is untouched).
func (m *Manager) localOptions(core int) LocalOptions {
	opt := m.localOpts[core]
	if m.vacant > 0 {
		opt.MaxWays = m.cfg.Sys.LLC.Assoc - (m.cfg.Sys.NumCores - m.vacant - 1)
	}
	return opt
}

// Decide is the RMA invocation: core invoker has completed an interval with
// the given statistics. It is DecideAll with only the invoker's statistics
// fresh, and returns the new settings for all cores and true, or nil and
// false when the manager keeps the current settings (static scheme,
// warm-up, or no feasible allocation).
//
//qosrma:noalloc
func (m *Manager) Decide(invoker int, st *IntervalStats) ([]arch.Setting, bool) {
	m.single[invoker] = st
	settings, ok := m.DecideAll(m.single)
	m.single[invoker] = nil
	return settings, ok
}

// DecideAll is the batch form of Decide: st holds fresh statistics for any
// subset of the cores (nil entries have none), and the manager answers with
// the settings the sequential invocation order — Decide(i, st[i]) for each
// non-nil entry, in core order — would have produced, bit-identically.
// Entries for vacant cores are ignored. Every fresh curve is rebuilt into
// its core's reusable buffer before anything else is decided, so a manager
// kept across queries answers repeated full vectors without allocating and
// without leaking curve state between them. The curves then go through
// SettleInto, the global step every scheme shares.
//
//qosrma:noalloc
func (m *Manager) DecideAll(st []*IntervalStats) ([]arch.Setting, bool) {
	if len(st) != len(m.settings) {
		panic("core: DecideAll statistics length mismatch")
	}
	m.Invocations++
	last := -1 // the last core with fresh statistics
	for i, s := range st {
		if s == nil || !m.occupied[i] {
			continue
		}
		if m.feedback != nil {
			m.feedback[i].Observe(s)
		}
		m.lastStats[i] = s
		last = i
	}

	curves := m.decision
	switch m.cfg.Scheme {
	case SchemeStatic:
		return nil, false

	case SchemeDVFSOnly:
		// Only cores with fresh statistics re-decide their frequency.
		for i, s := range st {
			curves[i] = nil
			if s != nil && m.occupied[i] {
				curves[i] = m.build(i, s, i)
			}
		}

	case SchemeUCPDVFS:
		// UCP repartitions the whole cache, so every occupied core's curve
		// is rebuilt from its last statistics — under the feedback table of
		// the last fresh core, whose invocation decides in the sequential
		// order.
		for i, s := range m.lastStats {
			curves[i], m.misses[i] = nil, m.zeroProf // vacant: misses nothing
			if !m.occupied[i] {
				continue
			}
			if s == nil {
				return nil, false // warm-up: keep the baseline
			}
			curves[i], m.misses[i] = m.build(i, s, last), s.ATDMisses
		}

	case SchemePartitionOnly, SchemeCoordDVFSCache, SchemeCoordCoreDVFSCache:
		// Rebuild every fresh curve and reuse the last curves of the other
		// cores (thesis Fig. 3.1/3.2); vacant cores stand in with the
		// shared idle curve. Of the sequential order's reductions only the
		// last is observable, and it runs over these same curves.
		for i, s := range st {
			if s != nil && m.occupied[i] {
				m.build(i, s, i)
			}
		}
		for i, c := range m.curves {
			curves[i] = m.idle
			if !m.occupied[i] {
				continue
			}
			if c == nil {
				// First invocations: some cores have no statistics yet —
				// keep the baseline setting (thesis Chapter 2, footnote 2).
				return nil, false
			}
			curves[i] = c
		}
	}

	settings, ok := SettleInto(m.settings, &m.cfg.Sys, m.cfg.Scheme, curves, m.misses, &m.ways)
	if !ok {
		return nil, false
	}
	m.settings = settings
	for i := range m.settings {
		if !m.occupied[i] {
			// Nothing executes on a vacant core; park it at the baseline
			// (the ways the idle curve absorbed are simply unclaimed).
			m.settings[i] = m.cfg.Sys.BaselineSetting()
		}
	}
	return m.Settings(), true
}

// build rebuilds core i's curve from st into its reusable buffer, with
// core fb's phase-history table installed (none when fb < 0).
func (m *Manager) build(i int, st *IntervalStats, fb int) *Curve {
	if m.feedback != nil && fb >= 0 {
		m.pred.Feedback = m.feedback[fb]
	}
	m.curves[i] = m.pred.BuildCurveInto(st, m.localOptions(i), m.curves[i])
	m.pred.Feedback = nil
	return m.curves[i]
}

// SettleInto is the RMA's global step, the one every scheme ends in: it
// turns the per-core energy curves into per-core settings. dst holds the
// current settings, one per curve, and receives the answer. misses are
// the per-core miss profiles UCP partitions by (other schemes ignore
// them). It returns false when the scheme makes no decision.
//
//   - RM1/RM2/RM3: the coordinated way-allocation DP (ReduceInto); on
//     failure dst is untouched.
//   - DVFS-only: each core with a curve takes its cheapest feasible
//     frequency at the equal partition; an infeasible core keeps its
//     setting, and the answer is decided when the last such core's was
//     (the sequential invocation loop's last return value).
//   - UCP+DVFS: UCP partitions the cache to minimize total misses, then an
//     independent QoS-aware DVFS controller picks each core's cheapest
//     feasible frequency for the ways it was handed, or the maximum
//     frequency when none meets QoS — the violation the paper's
//     coordinated design exists to prevent. A nil curve (a vacant core) is
//     parked at the baseline.
//   - Static: no decision.
//
//qosrma:noalloc
func SettleInto(dst []arch.Setting, sys *arch.SystemConfig, scheme Scheme, curves []*Curve, misses [][]float64, ws *WaysScratch) ([]arch.Setting, bool) {
	switch scheme {
	case SchemePartitionOnly, SchemeCoordDVFSCache, SchemeCoordCoreDVFSCache:
		return ReduceInto(dst, curves, sys.LLC.Assoc, ws)

	case SchemeDVFSOnly:
		decided := false
		ways := sys.BaselineWays()
		for i, c := range curves {
			if c == nil {
				continue
			}
			o := c.Options[ways]
			decided = o.Feasible
			if decided {
				dst[i] = arch.Setting{Size: o.Size, FreqIdx: o.FreqIdx, Ways: ways}
			}
		}
		return dst, decided

	case SchemeUCPDVFS:
		alloc := cache.UCPLookahead(misses, sys.LLC.Assoc, 1)
		for i, c := range curves {
			if c == nil {
				dst[i] = sys.BaselineSetting()
			} else if o := c.Options[alloc[i]]; o.Feasible {
				dst[i] = arch.Setting{Size: o.Size, FreqIdx: o.FreqIdx, Ways: alloc[i]}
			} else {
				dst[i] = arch.Setting{Size: sys.BaselineSize, FreqIdx: len(sys.DVFS) - 1, Ways: alloc[i]}
			}
		}
		return dst, true

	case SchemeStatic:
	}
	return nil, false
}
