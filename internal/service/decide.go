// Decision path of the service: /v1/decide requests are parsed and
// validated on the handler goroutine against the current snapshot into
// one binary key each (key.go), then routed — one task per query — to a
// shard picked by the key's hash. The hash is computed once, at fan-out,
// and the task carries it to the shard's LRU and admission filter. Each
// shard runs one worker goroutine that drains its queue in micro-batches
// and owns everything the hot path touches: the decision LRU and the
// curve table. Nothing on the compute path locks.
//
// A cache miss reads each core's energy curve from the shard's curve
// table (curvetable.go), which builds a curve the first time its (bench,
// phase, scheme, model, slack) is needed, and settles the curves with
// core.SettleInto, the global step Manager.DecideAll ends in; a warm miss
// allocates only the settings slice it returns. Every scheme takes this
// path, with the library's search space and global step, so answers are
// bit-identical to direct library calls regardless of shard count, batch
// size, cache or table state and arrival order — the service's central
// invariant, pinned by TestDecideMatchesLibrary,
// TestCurveTableMatchesLibrary and TestConcurrentDecideDeterministic, and
// continuously re-verified in production by the self-checker (audit.go).
//
// Hot-swap discipline: a task carries the snapshot its request resolved
// against. The worker adopts a newer snapshot the first time it sees one
// (dropping its LRU and curve table, which were derived from the old
// database); a task older than the shard's snapshot — a request that
// resolved just before a swap landed — is answered correctly against its
// own snapshot on the fresh-manager path (computeFresh), bypassing the
// cache, so mixed-generation traffic never mixes cached state.
package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
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

// task is one unit of work in flight through a shard: a decide query
// (key/h/res/wg set, h being keyHash(key)) or a self-audit request
// (audit set).
type task struct {
	key   queryKey
	h     uint64
	sn    *snapshot
	res   *decideResult
	wg    *sync.WaitGroup
	audit *auditTask
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

	// Counters, read by healthz and /metrics concurrently with the worker.
	tasks      atomic.Uint64
	hits       atomic.Uint64
	misses     atomic.Uint64
	admRejects atomic.Uint64
	batches    atomic.Uint64
}

// adopt rebuilds the shard-local derived state for a snapshot: a fresh
// LRU and curve table (both encode database content). Nothing is built
// eagerly.
func (sh *shard) adopt(sn *snapshot) {
	sh.sn = sn
	sh.lru = newLRU(sh.srv.opt.CacheSize)
	sh.table = newCurveTable(sn)
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

// resolveQuery validates one JSON query against the snapshot's database
// and builds its key.
func resolveQuery(sn *snapshot, q *DecideQuery) (queryKey, error) {
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
	slack := q.Slacks
	switch {
	case len(slack) > 0:
		if len(slack) != n {
			return nil, fmt.Errorf("slacks needs %d entries, got %d", n, len(slack))
		}
	case q.Slack != 0:
		slack = []float64{q.Slack}
	}
	key, err := appendKeyConfig(make([]byte, 0, keyHead+8*len(slack)+4*n), scheme, model, slack)
	if err != nil {
		return nil, err
	}
	for _, app := range q.Apps {
		id, ok := db.BenchIDOf(app.Bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", app.Bench)
		}
		np := db.Benches[id].Analysis.NumPhases
		if app.Phase < 0 || app.Phase >= np {
			return nil, fmt.Errorf("%s has phases 0..%d, got %d", app.Bench, np-1, app.Phase)
		}
		key = appendKeyApp(key, id, app.Phase)
	}
	return key, nil
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

// shardOf routes a key, by its hash, to the owning shard.
func (s *Server) shardOf(h uint64) *shard {
	return s.shards[uint32(h)%uint32(len(s.shards))]
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

// compute runs the library decision for one query against the shard's
// adopted snapshot, from the curve table.
//
//qosrma:noalloc
func (sh *shard) compute(k queryKey) decideResult {
	settings, ok := sh.table.decide(k)
	if !ok {
		settings = baselineSettings(sh.sn.db)
	}
	return decideResult{decided: ok, settings: settings}
}

// computeFresh runs the library decision for one query with nothing
// pooled: a fresh manager and fresh statistics, all derived from the
// given snapshot. This is the slow, trusted path, independent of the
// curve table — it answers stale-generation tasks after a hot-swap and
// recomputes the reference answers the self-checker compares cached and
// table decisions against.
func computeFresh(sn *snapshot, k queryKey) decideResult {
	db := sn.db
	n := db.Sys.NumCores
	stats := make([]core.IntervalStats, n)
	ptrs := make([]*core.IntervalStats, n)
	for i := 0; i < n; i++ {
		FillOracleStats(db, k.bench(i), k.phase(i), i, &stats[i])
		ptrs[i] = &stats[i]
	}
	settings, ok := core.NewManager(core.Config{
		Sys:    db.Sys,
		Power:  power.DefaultParams(db.Sys),
		Scheme: k.scheme(),
		Model:  k.model(),
		Slack:  k.slacks(n),
	}).DecideAll(ptrs)
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
			*t.res = computeFresh(t.sn, t.key)
			t.wg.Done()
			return
		}
	}
	if res, ok := sh.lru.get(t.key, t.h); ok {
		sh.hits.Add(1)
		*t.res = res
	} else {
		sh.misses.Add(1)
		res := sh.compute(t.key)
		if sh.lru.admit(t.h) {
			sh.lru.add(t.key, t.h, res)
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
func (s *Server) decide(sn *snapshot, keys []queryKey) ([]decideResult, error) {
	results := make([]decideResult, len(keys))
	var wg sync.WaitGroup
	if err := s.decideInto(sn, keys, results, &wg); err != nil {
		return nil, err
	}
	return results, nil
}

// decideInto is decide with caller-owned result storage and WaitGroup:
// results[i] receives the answer to keys[i]. The binary path passes
// per-connection scratch for all three, which keeps a steady-state wire
// frame free of heap allocation. Keys may alias that scratch: the LRU
// copies a key before retaining it, and every task is done when
// decideInto returns.
func (s *Server) decideInto(sn *snapshot, keys []queryKey, results []decideResult, wg *sync.WaitGroup) error {
	start := time.Now()
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		return errServerClosed
	}
	wg.Add(len(keys))
	for i, k := range keys {
		h := keyHash(k)
		s.shardOf(h).ch <- task{key: k, h: h, sn: sn, res: &results[i], wg: wg}
	}
	wg.Wait()
	s.metrics.decideSeconds.Observe(time.Since(start).Seconds())
	s.metrics.decideBatch.Observe(float64(len(keys)))
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
	keys := make([]queryKey, len(wire))
	for i := range wire {
		k, err := resolveQuery(sn, &wire[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		keys[i] = k
	}
	results, err := s.decide(sn, keys)
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
