// Decision path of the service: /v1/decide requests are parsed and
// validated on the handler goroutine against the current snapshot, then
// routed — one task per query — to a shard picked by hashing the query's
// canonical co-phase key. Each shard runs one worker goroutine that
// drains its queue in micro-batches and owns everything the hot path
// touches: the decision LRU, the curve table, the per-configuration
// managers and the per-core IntervalStats scratch. Nothing on the
// compute path locks.
//
// A cache miss is computed one of two ways. The coordinated schemes
// (RM1/RM2/RM3) read each core's energy curve from the shard's curve
// table (curvetable.go), which builds a curve the first time its (bench,
// phase, scheme, model, slack) is needed, and run the way-allocation DP
// over them; a warm miss allocates only the settings slice it returns.
// Static, DVFS-only and UCP run core.Manager.DecideAll on a pooled
// manager. Both paths use the search space and reduction the library
// uses, so answers are bit-identical to direct library calls regardless
// of shard count, batch size, cache or table state and arrival order —
// the service's central invariant, pinned by TestDecideMatchesLibrary,
// TestCurveTableMatchesLibrary and TestConcurrentDecideDeterministic,
// and continuously re-verified in production by the self-checker
// (audit.go).
//
// Hot-swap discipline: a task carries the snapshot its request resolved
// against. The worker adopts a newer snapshot the first time it sees one
// (dropping its LRU, curve table and manager pool, which were derived
// from the old database); a task older than the shard's snapshot — a
// request that resolved just before a swap landed — is answered correctly
// against its own snapshot on the fresh-manager path (computeFresh),
// bypassing the cache, so mixed-generation traffic never mixes cached
// state.
package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

// AppQuery names one core's occupant in a decide query: a benchmark and a
// phase of its SimPoint trace (the co-phase vector element).
type AppQuery struct {
	Bench string `json:"bench"`
	Phase int    `json:"phase"`
}

// DecideRequest is the wire form of /v1/decide. Either a single query
// (top-level fields) or a batch (Queries) may be supplied.
type DecideRequest struct {
	DecideQuery
	Queries []DecideQuery `json:"queries,omitempty"`
}

// DecideQuery asks for the coordinated per-core settings of one co-phase
// vector under one manager configuration.
type DecideQuery struct {
	// Scheme is the resource-management algorithm: static, dvfs, rm1, rm2,
	// rm3 or ucp (default rm2).
	Scheme string `json:"scheme,omitempty"`
	// Model is the analytical predictor: 1, 2 or 3; 0 picks the scheme
	// default (Model2, or Model3 for rm3).
	Model int `json:"model,omitempty"`
	// Slack is the uniform QoS relaxation; Slacks relaxes per core.
	Slack  float64   `json:"slack,omitempty"`
	Slacks []float64 `json:"slacks,omitempty"`
	// Apps is the co-phase vector, one entry per core.
	Apps []AppQuery `json:"apps"`
}

// SettingJSON is one core's resource allocation on the wire.
type SettingJSON struct {
	Size    string  `json:"size"`
	FreqIdx int     `json:"freq_idx"`
	FreqGHz float64 `json:"freq_ghz"`
	Ways    int     `json:"ways"`
}

// DecideAnswer is the service's answer for one query. Decided reports
// whether the manager produced a new allocation; when false (warm-up or no
// feasible allocation) Settings is the baseline the machine stays at.
type DecideAnswer struct {
	Decided  bool          `json:"decided"`
	Settings []SettingJSON `json:"settings"`
}

// DecideResponse is the wire form of a /v1/decide reply: Result for a
// single query, Results index-aligned with the request batch.
type DecideResponse struct {
	Result  *DecideAnswer  `json:"result,omitempty"`
	Results []DecideAnswer `json:"results,omitempty"`
}

// decideResult is the internal, wire-independent decision: what the
// library path returns and what the LRU caches.
type decideResult struct {
	decided  bool
	settings []arch.Setting // always numCores long
}

// equal reports bitwise equality — what the self-checker demands between
// a cached decision and a fresh library computation.
func (a decideResult) equal(b decideResult) bool {
	if a.decided != b.decided || len(a.settings) != len(b.settings) {
		return false
	}
	for i := range a.settings {
		if a.settings[i] != b.settings[i] {
			return false
		}
	}
	return true
}

// decideQuery is a validated, resolved query: benchmarks interned, the
// manager configuration canonicalized, and the routing/cache key built.
// The key is bytes, not a string, so the wire path can stage it in
// connection-owned scratch and the cache hit path never materializes a
// string (map lookups convert without allocating).
type decideQuery struct {
	cfg    managerKey
	slack  []float64 // nil for zero slack
	ids    []simdb.BenchID
	phases []int
	key    []byte
}

// clone deep-copies the query so it can outlive the buffers it was
// resolved into — what the cache does before retaining a wire-path query
// whose slices alias per-connection scratch. The key is not copied: a
// cached entry owns its key as a string.
func (q *decideQuery) clone() *decideQuery {
	c := &decideQuery{cfg: q.cfg}
	if q.slack != nil {
		c.slack = append([]float64(nil), q.slack...)
	}
	c.ids = append([]simdb.BenchID(nil), q.ids...)
	c.phases = append([]int(nil), q.phases...)
	return c
}

// managerKey identifies one manager configuration in a shard's pool.
type managerKey struct {
	scheme core.Scheme
	model  core.ModelKind
	// slackKey is the canonical rendering of the per-core slack vector
	// ("" when every core has zero slack), keeping the struct comparable.
	slackKey string
}

// task is one unit of work in flight through a shard: a decide query
// (q/res/wg set) or a self-audit request (audit set). ephemeral marks a
// query resolved into connection-owned scratch (the wire path): the
// worker must clone it before the cache may retain it.
type task struct {
	q         *decideQuery
	sn        *snapshot
	res       *decideResult
	wg        *sync.WaitGroup
	audit     *auditTask
	ephemeral bool
}

// shard owns a partition of the decision key space.
type shard struct {
	srv *Server
	ch  chan task

	// sn is the snapshot the shard-local state below was derived from;
	// only the worker touches it after construction.
	sn    *snapshot
	lru   *lru
	table *curveTable
	mgrs  map[managerKey]*core.Manager

	// Reusable per-core statistics buffers for the manager path; pointers
	// alias the buffers and are re-filled before every DecideAll (the
	// manager retains them only until the next call, exactly like the RMA
	// simulator's per-core buffers).
	stats    []core.IntervalStats
	statPtrs []*core.IntervalStats

	// Counters, read by healthz and /metrics concurrently with the worker.
	tasks      atomic.Uint64
	hits       atomic.Uint64
	misses     atomic.Uint64
	admRejects atomic.Uint64
	batches    atomic.Uint64
}

// adopt rebuilds the shard-local derived state for a snapshot: a fresh
// LRU, curve table and manager pool (all encode database content) and
// statistics scratch sized to the system. Nothing is built eagerly.
func (sh *shard) adopt(sn *snapshot) {
	n := sn.db.Sys.NumCores
	sh.sn = sn
	sh.lru = newLRU(sh.srv.opt.CacheSize)
	sh.table = newCurveTable(sn)
	sh.mgrs = make(map[managerKey]*core.Manager, 8)
	sh.stats = make([]core.IntervalStats, n)
	sh.statPtrs = make([]*core.IntervalStats, n)
}

// parseScheme resolves the wire name of a scheme.
func parseScheme(name string) (core.Scheme, error) {
	switch strings.ToLower(name) {
	case "static":
		return core.SchemeStatic, nil
	case "dvfs", "dvfs-only":
		return core.SchemeDVFSOnly, nil
	case "rm1", "partition":
		return core.SchemePartitionOnly, nil
	case "", "rm2", "coord":
		return core.SchemeCoordDVFSCache, nil
	case "rm3", "core":
		return core.SchemeCoordCoreDVFSCache, nil
	case "ucp", "uncoordinated":
		return core.SchemeUCPDVFS, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want static, dvfs, rm1, rm2, rm3 or ucp)", name)
	}
}

// parseModel resolves the wire model number, applying the scheme default.
func parseModel(model int, scheme core.Scheme) (core.ModelKind, error) {
	switch model {
	case 0:
		if scheme == core.SchemeCoordCoreDVFSCache {
			return core.Model3, nil
		}
		return core.Model2, nil
	case 1:
		return core.Model1, nil
	case 2:
		return core.Model2, nil
	case 3:
		return core.Model3, nil
	default:
		return 0, fmt.Errorf("unknown model %d (want 1, 2 or 3, or 0 for the scheme default)", model)
	}
}

// resolveQuery validates one wire query against the snapshot's database
// and builds its canonical routing/cache key.
func resolveQuery(sn *snapshot, q *DecideQuery) (*decideQuery, error) {
	db := sn.db
	n := db.Sys.NumCores
	if len(q.Apps) != n {
		return nil, fmt.Errorf("co-phase vector needs %d apps (one per core), got %d", n, len(q.Apps))
	}
	scheme, err := parseScheme(q.Scheme)
	if err != nil {
		return nil, err
	}
	model, err := parseModel(q.Model, scheme)
	if err != nil {
		return nil, err
	}
	var slack []float64
	switch {
	case len(q.Slacks) > 0:
		if len(q.Slacks) != n {
			return nil, fmt.Errorf("slacks needs %d entries, got %d", n, len(q.Slacks))
		}
		slack = q.Slacks
	case q.Slack != 0:
		slack = make([]float64, n)
		for i := range slack {
			slack[i] = q.Slack
		}
	}
	for i, v := range slack {
		if err := checkSlack(i, v); err != nil {
			return nil, err
		}
	}

	rq := &decideQuery{
		slack:  slack,
		ids:    make([]simdb.BenchID, n),
		phases: make([]int, n),
	}
	for i, app := range q.Apps {
		id, ok := db.BenchIDOf(app.Bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", app.Bench)
		}
		np := db.Benches[id].Analysis.NumPhases
		if app.Phase < 0 || app.Phase >= np {
			return nil, fmt.Errorf("%s has phases 0..%d, got %d", app.Bench, np-1, app.Phase)
		}
		rq.ids[i] = id
		rq.phases[i] = app.Phase
	}
	rq.cfg = managerKey{scheme: scheme, model: model, slackKey: slackKeyOf(slack)}
	rq.key = appendQueryKey(make([]byte, 0, 64), rq.cfg, rq.ids, rq.phases)
	return rq, nil
}

// checkSlack validates one core's slack: a finite, non-negative
// fraction. NaN and +Inf would otherwise pass a plain sign test and
// switch QoS off: every setting then compares as meeting its target, so
// each core drops to the cheapest frequency.
func checkSlack(i int, v float64) error {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Errorf("slack[%d] = %g is not finite", i, v)
	case v < 0:
		return fmt.Errorf("slack[%d] = %g is negative", i, v)
	}
	return nil
}

// slackKeyOf renders the canonical slack-vector key ("" for all-zero) —
// one rendering shared by the JSON and wire paths, so both resolve to
// the same manager pool entries and cache keys.
func slackKeyOf(slack []float64) string {
	if slack == nil {
		return ""
	}
	parts := make([]string, len(slack))
	for i, v := range slack {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// appendQueryKey appends the canonical routing/cache key of one resolved
// query. JSON and wire queries with the same semantics produce the same
// bytes: that is what lets the two codecs share shard placement, cached
// decisions and audit coverage.
func appendQueryKey(dst []byte, cfg managerKey, ids []simdb.BenchID, phases []int) []byte {
	dst = strconv.AppendInt(dst, int64(cfg.scheme), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(cfg.model), 10)
	dst = append(dst, '/')
	dst = append(dst, cfg.slackKey...)
	for i, id := range ids {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(id), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(phases[i]), 10)
	}
	return dst
}

// shardOf routes a canonical key to its owning shard. The inlined
// keyHash replaces the old hash.Hash32 construction, which allocated on
// every fan-out.
func (s *Server) shardOf(key []byte) *shard {
	return s.shards[uint32(keyHash(key))%uint32(len(s.shards))]
}

// FillOracleStats fills st with the perfect interval statistics of one
// (benchmark, phase) pair executing on coreID at the baseline setting —
// the co-phase decision point the RMA faces, built exactly as the
// simulator's oracle gatherStats path builds it. The profile slices alias
// the immutable database records.
func FillOracleStats(db *simdb.DB, id simdb.BenchID, phase, coreID int, st *core.IntervalStats) {
	rec := db.RecordAt(id, phase)
	pt := db.PerfAt(id, phase, db.BaselineIdx())
	*st = core.IntervalStats{
		Core:          coreID,
		Setting:       db.Sys.BaselineSetting(),
		Instr:         trace.SliceInstructions,
		Cycles:        pt.Cycles,
		LLCAccesses:   pt.LLCAccesses,
		BranchMisses:  rec.BranchMPKI * trace.SliceInstructions / 1000,
		TotalMisses:   pt.Misses,
		LeadingMisses: pt.Leading,
		ATDMisses:     rec.Misses,
		ATDLeading:    rec.Leading,
		IlpIPC:        rec.IlpIPC,
	}
}

// OracleStats is FillOracleStats returning a fresh struct (the reference
// the service's equivalence tests drive the library path with).
func OracleStats(db *simdb.DB, id simdb.BenchID, phase, coreID int) *core.IntervalStats {
	st := new(core.IntervalStats)
	FillOracleStats(db, id, phase, coreID, st)
	return st
}

// newManager builds a library manager for one configuration over a
// snapshot's database.
func newManager(sn *snapshot, q *decideQuery) *core.Manager {
	db := sn.db
	return core.NewManager(core.Config{
		Sys:    db.Sys,
		Power:  power.DefaultParams(db.Sys),
		Scheme: q.cfg.scheme,
		Model:  q.cfg.model,
		Slack:  append([]float64(nil), q.slack...),
	})
}

// manager returns the shard's manager for the configuration, building it
// on first use. Managers are retained: their per-core curve buffers are
// the shard-local reuse that keeps repeated decisions allocation-free.
// The pool holds at most maxShardConfigs managers and is dropped whole
// when a new configuration would exceed that.
func (sh *shard) manager(q *decideQuery) *core.Manager {
	m, ok := sh.mgrs[q.cfg]
	if !ok {
		if len(sh.mgrs) >= maxShardConfigs {
			clear(sh.mgrs)
		}
		m = newManager(sh.sn, q)
		sh.mgrs[q.cfg] = m
	}
	return m
}

// compute runs the library decision for one query against the shard's
// adopted snapshot: coordinated schemes from the curve table, the others
// on a pooled manager with the shard's reusable statistics scratch.
//
//qosrma:noalloc
func (sh *shard) compute(q *decideQuery) decideResult {
	db := sh.sn.db
	var (
		settings []arch.Setting
		ok       bool
	)
	if tableScheme(q.cfg.scheme) {
		settings, ok = sh.table.decide(q)
	} else {
		for i := range sh.stats {
			FillOracleStats(db, q.ids[i], q.phases[i], i, &sh.stats[i])
			sh.statPtrs[i] = &sh.stats[i]
		}
		settings, ok = sh.manager(q).DecideAll(sh.statPtrs)
	}
	if !ok {
		settings = baselineSettings(db)
	}
	return decideResult{decided: ok, settings: settings}
}

// computeFresh runs the library decision for one query with nothing
// pooled: a fresh manager and fresh statistics, all derived from the
// given snapshot. This is the slow, trusted path, independent of the
// curve table — it answers stale-generation tasks after a hot-swap and
// recomputes the reference answers the self-checker compares cached and
// table decisions against.
func computeFresh(sn *snapshot, q *decideQuery) decideResult {
	db := sn.db
	n := db.Sys.NumCores
	stats := make([]core.IntervalStats, n)
	ptrs := make([]*core.IntervalStats, n)
	for i := 0; i < n; i++ {
		FillOracleStats(db, q.ids[i], q.phases[i], i, &stats[i])
		ptrs[i] = &stats[i]
	}
	settings, ok := newManager(sn, q).DecideAll(ptrs)
	if !ok {
		settings = baselineSettings(db)
	}
	return decideResult{decided: ok, settings: settings}
}

// baselineSettings is the all-cores-at-baseline allocation vector.
func baselineSettings(db *simdb.DB) []arch.Setting {
	base := db.Sys.BaselineSetting()
	settings := make([]arch.Setting, db.Sys.NumCores)
	for i := range settings {
		settings[i] = base
	}
	return settings
}

// process answers one task: dispatching audits, adopting newer snapshots,
// and serving decide queries from the cache or by computing.
//
//qosrma:noalloc
func (sh *shard) process(t task) {
	if t.audit != nil {
		sh.runAudit(t.audit)
		return
	}
	sh.tasks.Add(1)
	if t.sn != sh.sn {
		if t.sn.gen > sh.sn.gen {
			sh.adopt(t.sn)
		} else {
			// The request resolved against a snapshot that was swapped out
			// while it queued. Its answer must still come from that snapshot
			// (no torn responses), so compute fresh and leave the cache —
			// which now encodes the newer database — untouched.
			*t.res = computeFresh(t.sn, t.q)
			t.wg.Done()
			return
		}
	}
	h := keyHash(t.q.key)
	if res, ok := sh.lru.get(t.q.key, h); ok {
		sh.hits.Add(1)
		*t.res = res
	} else {
		sh.misses.Add(1)
		res := sh.compute(t.q)
		if sh.lru.admit(h) {
			q := t.q
			if t.ephemeral {
				q = q.clone()
			}
			sh.lru.add(t.q.key, h, q, res)
		} else if sh.srv.opt.CacheSize > 0 {
			sh.admRejects.Add(1)
		}
		*t.res = res
	}
	t.wg.Done()
}

// run is the shard worker: it blocks for one task, then drains up to a
// micro-batch from the queue before blocking again, so a loaded shard
// amortizes channel wakeups across many decisions.
func (sh *shard) run() {
	for {
		select {
		case <-sh.srv.quit:
			return
		case t := <-sh.ch:
			sh.batches.Add(1)
			sh.process(t)
			for drained := 1; drained < sh.srv.opt.Batch; drained++ {
				select {
				case t2 := <-sh.ch:
					sh.process(t2)
				default:
					drained = sh.srv.opt.Batch
				}
			}
		}
	}
}

// decide answers a batch of resolved queries by fanning them out to their
// shards and awaiting completion. The read lock pairs with Close's write
// lock: while any decide holds it the workers cannot be stopped, so an
// accepted task is always drained and wg.Wait cannot strand the handler;
// after Close, requests fail fast instead of queueing into dead shards.
func (s *Server) decide(sn *snapshot, queries []*decideQuery) ([]decideResult, error) {
	results := make([]decideResult, len(queries))
	if err := s.decideInto(sn, queries, results, false); err != nil {
		return nil, err
	}
	return results, nil
}

// decideInto is decide with caller-owned result storage: results[i]
// receives the answer to queries[i]. The binary path calls it with
// per-connection scratch (and ephemeral=true, because those queries
// alias connection buffers the cache must not retain), which is what
// keeps a steady-state wire decision free of per-request allocation.
func (s *Server) decideInto(sn *snapshot, queries []*decideQuery, results []decideResult, ephemeral bool) error {
	start := time.Now()
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return errServerClosed
	}
	var wg sync.WaitGroup
	wg.Add(len(queries))
	for i, q := range queries {
		s.shardOf(q.key).ch <- task{q: q, sn: sn, res: &results[i], wg: &wg, ephemeral: ephemeral}
	}
	wg.Wait()
	s.metrics.decideSeconds.Observe(time.Since(start).Seconds())
	s.metrics.decideBatch.Observe(float64(len(queries)))
	return nil
}

// settingsJSON renders per-core settings on the wire, resolving frequency
// indices against the snapshot the decision was made on.
func (sn *snapshot) settingsJSON(settings []arch.Setting) []SettingJSON {
	out := make([]SettingJSON, len(settings))
	for i, st := range settings {
		out[i] = SettingJSON{
			Size:    st.Size.String(),
			FreqIdx: st.FreqIdx,
			FreqGHz: sn.db.Sys.DVFS[st.FreqIdx].FreqGHz,
			Ways:    st.Ways,
		}
	}
	return out
}

// handleDecide is POST /v1/decide. A request arriving during a drain is
// refused here, at the entry point: decideInto itself serves every
// caller until Close, so a wire frame the connection loop read before
// the drain began is still answered ahead of its goaway.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeUnavailable(w, errDraining)
		return
	}
	if !s.gate.TryAcquire() {
		writeUnavailable(w, errOverloaded)
		return
	}
	defer s.gate.Release()
	sn := s.snap.Load()
	var req DecideRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	single := len(req.Queries) == 0
	wire := req.Queries
	if single {
		wire = []DecideQuery{req.DecideQuery}
	}
	if len(wire) > s.opt.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(wire), s.opt.MaxBatch))
		return
	}
	queries := make([]*decideQuery, len(wire))
	for i := range wire {
		q, err := resolveQuery(sn, &wire[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = q
	}
	results, err := s.decide(sn, queries)
	if err != nil {
		writeUnavailable(w, err)
		return
	}
	var resp DecideResponse
	answers := make([]DecideAnswer, len(results))
	for i, res := range results {
		answers[i] = DecideAnswer{Decided: res.decided, Settings: sn.settingsJSON(res.settings)}
	}
	if single {
		resp.Result = &answers[0]
	} else {
		resp.Results = answers
	}
	writeJSON(w, http.StatusOK, &resp)
}
