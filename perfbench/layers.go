package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/cluster"
	"qosrma/internal/core"
	"qosrma/internal/equilibrium"
	"qosrma/internal/power"
	"qosrma/internal/route"
	"qosrma/internal/sched"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

// span is one timed call across a layer boundary. Spans of one call tree
// share the root's ID through Parent links; Parent 0 is a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  atomic.Int64
	spans []span
	// parent is the span in-process backends report as their parent.
	parent atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name their parent before the
// parent span ends.
func (t *tracer) id() int64 { return t.next.Add(1) }

func (t *tracer) recordID(id, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id, parent, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) record(name string, parent int64, start, end time.Time) {
	t.recordID(t.id(), parent, name, start, end)
}

// timeCall records fn as a root span and returns its duration; an empty
// name (warm-up calls) records nothing.
func (t *tracer) timeCall(name string, fn func(id int64)) time.Duration {
	id := t.id()
	t0 := time.Now()
	fn(id)
	t1 := time.Now()
	if name != "" {
		t.recordID(id, 0, name, t0, t1)
	}
	return t1.Sub(t0)
}

// selfTimes sums each layer's self time in ms: a span's duration minus
// the part its children cover. The layer is the span name's first
// dot-separated word.
func (t *tracer) selfTimes() map[string]float64 {
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// write stores the spans as JSON under .bench_build in the checkout.
func (t *tracer) write(cfg config) error {
	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed)), b, 0o644)
}

// meanUs is the mean of durations in microseconds.
func meanUs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds() * 1e6 / float64(len(ds))
}

// layerPass times each layer's public calls in-process on inputs drawn
// from the seed, the same pass on every workload. Metrics the live run
// already set (the scraped counters of the workload's own processes) are
// kept; a workload without serving processes gets them from the
// in-process servers here.
func layerPass(cfg config, db *simdb.DB, tr *tracer, fleetRes *cluster.Result, out *outcome, chk *checks) error {
	p := &pass{db: db, tr: tr, out: out, chk: chk, hash: dbHash64(db)}
	sp := newSpace(db)
	p.hotFrames = hotWireFrames(db, p.hash, hotPopulation(db, cfg.seed))
	p.cold = newColdStream(sp, cfg.seed)
	// 1.2 s of json-tier-open arrivals: the first two thirds warm the
	// caches, the last third is timed.
	jstream := newJSONStream(sp, cfg.seed, 1.2, newZipf(jsonPop, jsonZipfS))
	var bodies [][]byte
	for k := range jstream.due {
		vs := jstream.vectors(k)
		bodies = append(bodies, appendJSONBatch(nil, db, "rm2", vs))
		for _, v := range vs {
			q := service.DecideQuery{Scheme: "rm2", Slack: slack}
			for _, a := range v {
				q.Apps = append(q.Apps, service.AppQuery{Bench: db.BenchName(a.id), Phase: a.phase})
			}
			p.queries = append(p.queries, q)
		}
	}
	p.warmBodies, p.timedBodies = bodies[:len(bodies)*2/3], bodies[len(bodies)*2/3:]

	if err := p.service(); err != nil {
		return err
	}
	p.core()
	if err := p.route(); err != nil {
		return err
	}
	return p.fleet(cfg.seed, fleetRes)
}

// pass carries the layer pass's inputs and the direct-call timings the
// tier's are compared with.
type pass struct {
	db   *simdb.DB
	tr   *tracer
	out  *outcome
	chk  *checks
	hash uint64

	hotFrames               [][]byte
	cold                    *coldStream
	queries                 []service.DecideQuery
	warmBodies, timedBodies [][]byte

	directHit, directJSON []time.Duration
}

// setDefault sets a metric unless the live run measured it.
func (p *pass) setDefault(name, unit string, v float64) {
	if _, ok := p.out.metrics[name]; !ok {
		p.out.set(name, unit, v)
	}
}

// serveJSON posts each body to h, recording a span per call (none for an
// empty name). The call's span is the parent of in-process backend spans.
func (p *pass) serveJSON(h http.Handler, name string, bodies [][]byte) []time.Duration {
	var ds []time.Duration
	for _, b := range bodies {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(b))
		ds = append(ds, p.tr.timeCall(name, func(id int64) {
			p.tr.parent.Store(id)
			h.ServeHTTP(rec, r)
		}))
		if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`"decided"`)) != jsonBatch {
			p.chk.failf("layer pass: %s answered %d", name, rec.Code)
		}
	}
	return ds
}

// wireRoundTrips sends each frame reps times on wc, recording a span per
// call (none for an empty name).
func (p *pass) wireRoundTrips(wc *wireConn, name string, frames [][]byte, reps int) ([]time.Duration, error) {
	var (
		ds   []time.Duration
		resp wire.DecideResponse
	)
	for r := 0; r < reps; r++ {
		for _, f := range frames {
			var err error
			ds = append(ds, p.tr.timeCall(name, func(int64) { _, err = wc.roundTrip(f, &resp) }))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return ds, nil
}

func metricsOf(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m, _ := parseMetrics(rec.Body)
	return m
}

// service times the codec and an in-process server over the same
// database: wire hits and misses, and JSON.
func (p *pass) service() error {
	db, tr, out := p.db, p.tr, p.out
	var req wire.DecideRequest
	const codecReps = 400
	d := tr.timeCall("wire.decode", func(int64) {
		for r := 0; r < codecReps; r++ {
			for _, f := range p.hotFrames {
				if err := wire.ParseDecideRequest(f[wire.HeaderSize:], &req); err != nil {
					p.chk.failf("layer pass: own frame does not parse: %v", err)
					return
				}
			}
		}
	})
	out.set("wire.decode_ns_per_query", "ns", float64(d.Nanoseconds())/float64(codecReps*hotPop))

	srv := service.New(db, nil, service.Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.ServeWire(ln) //nolint:errcheck // ends when srv.Close closes the listener
	wc, err := dialWire(ln.Addr().String())
	if err != nil {
		return err
	}
	defer wc.c.Close()
	if _, err := p.wireRoundTrips(wc, "", p.hotFrames, 1); err != nil {
		return err
	}
	if p.directHit, err = p.wireRoundTrips(wc, "service.wire_hit", p.hotFrames, 100); err != nil {
		return err
	}
	out.set("service.hit_us_per_batch", "us", meanUs(p.directHit))

	var resp wire.DecideResponse
	payload, err := wc.roundTrip(p.hotFrames[0], &resp)
	if err != nil {
		return err
	}
	var enc []byte
	d = tr.timeCall("wire.encode", func(int64) {
		for r := 0; r < codecReps*len(p.hotFrames); r++ {
			enc = wire.AppendDecideResponse(enc[:0], &resp)
		}
	})
	if !bytes.Equal(enc[wire.HeaderSize:], payload) {
		p.chk.failf("layer pass: re-encoded response differs from the server's")
	}
	out.set("wire.encode_ns_per_query", "ns", float64(d.Nanoseconds())/float64(codecReps*hotPop))

	for _, m := range []struct {
		name     string
		scheme   core.Scheme
		from, to int // wire-cold batches this pass uses nowhere else
	}{{"rm2", core.SchemeCoordDVFSCache, 100, 108}, {"rm3", core.SchemeCoordCoreDVFSCache, 200, 203}} {
		var frames [][]byte
		for g := m.from; g < m.to; g++ {
			frames = append(frames, wireFrame(nil, db, p.hash, uint32(g), m.scheme, p.cold.vectors(g)))
		}
		ds, err := p.wireRoundTrips(wc, "service.wire_miss_"+m.name, frames, 1)
		if err != nil {
			return err
		}
		out.set("service.miss_us_per_batch."+m.name, "us", meanUs(ds))
	}

	p.serveJSON(srv, "", p.warmBodies)
	pre := metricsOf(srv)
	cpu0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return err
	}
	p.directJSON = p.serveJSON(srv, "service.json", p.timedBodies)
	cpu1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return err
	}
	post := metricsOf(srv)
	out.set("service.json_us_per_batch", "us", meanUs(p.directJSON))
	hitRatio, rejectRatio, fanoutMs, served := serviceRatios([]map[string]float64{pre}, []map[string]float64{post})
	p.setDefault("service.lru_hit_ratio", "fraction", hitRatio)
	p.setDefault("service.admission_reject_ratio", "fraction", rejectRatio)
	p.setDefault("service.fanout_mean_ms", "ms", fanoutMs)
	p.setDefault("qosrmad.cpu_us_per_query", "us", (cpu1-cpu0)/served*1e6)
	return nil
}

// core times the decision kernels on wire-cold's first two batches.
func (p *pass) core() {
	db, tr, out := p.db, p.tr, p.out
	vecs := append(p.cold.vectors(0), p.cold.vectors(1)...)
	n := db.Sys.NumCores
	st := make([]core.IntervalStats, len(vecs)*n)
	const fillReps = 20
	d := tr.timeCall("core.fill_stats", func(int64) {
		for r := 0; r < fillReps; r++ {
			for i, v := range vecs {
				for c, a := range v {
					service.FillOracleStats(db, a.id, a.phase, c, &st[i*n+c])
				}
			}
		}
	})
	out.set("core.fill_stats_ns_per_core", "ns", float64(d.Nanoseconds())/float64(fillReps*len(st)))
	ptrs := make([]*core.IntervalStats, len(st))
	for i := range st {
		ptrs[i] = &st[i]
	}
	sl := make([]float64, n)
	for i := range sl {
		sl[i] = slack
	}
	for _, m := range []struct {
		name   string
		scheme core.Scheme
		count  int // vectors timed (RM3 is ~20x dearer)
	}{{"rm2", core.SchemeCoordDVFSCache, len(vecs)}, {"rm3", core.SchemeCoordCoreDVFSCache, len(vecs) / 4}} {
		mgr := core.NewManager(core.Config{Sys: db.Sys, Power: power.DefaultParams(db.Sys), Scheme: m.scheme, Model: modelFor(m.scheme), Slack: sl})
		d := tr.timeCall("core.decide_all_"+m.name, func(int64) {
			for i := 0; i < m.count; i++ {
				mgr.DecideAll(ptrs[i*n : (i+1)*n])
			}
		})
		out.set("core.decide_all_us."+m.name, "us", float64(d.Nanoseconds())/1e3/float64(m.count))

		pred := &core.Predictor{Sys: &db.Sys, Power: power.DefaultParams(db.Sys), Kind: modelFor(m.scheme)}
		opt := localOptions(db.Sys, m.scheme)
		curves := make([]*core.Curve, n)
		d = tr.timeCall("core.curve_build_"+m.name, func(int64) {
			for i := 0; i < m.count*n; i++ {
				curves[i%n] = pred.BuildCurveInto(ptrs[i], opt, curves[i%n])
			}
		})
		out.set("core.curve_build_us."+m.name, "us", float64(d.Nanoseconds())/1e3/float64(m.count*n))
		if m.scheme == core.SchemeCoordDVFSCache {
			var ws core.WaysScratch
			const dpReps = 2000
			d = tr.timeCall("core.alloc_dp", func(int64) {
				for r := 0; r < dpReps; r++ {
					core.AllocateWaysInto(curves, db.Sys.LLC.Assoc, &ws)
				}
			})
			out.set("core.alloc_dp_us", "us", float64(d.Nanoseconds())/1e3/dpReps)
		}
	}
}

// localOptions mirrors the per-core search space the manager builds for
// a coordinated scheme (core.Manager keeps it private).
func localOptions(sys arch.SystemConfig, scheme core.Scheme) core.LocalOptions {
	opt := core.LocalOptions{
		Sizes:   []arch.CoreSize{sys.BaselineSize},
		Slack:   slack,
		MaxWays: sys.LLC.Assoc - (sys.NumCores - 1),
	}
	if scheme == core.SchemeCoordCoreDVFSCache {
		opt.Sizes = []arch.CoreSize{arch.SizeSmall, arch.SizeMedium, arch.SizeLarge}
		opt.MinEnergyFreq = true
	}
	for i := range sys.DVFS {
		opt.Freqs = append(opt.Freqs, i)
	}
	return opt
}

// route times the split, then the tier in-process over two in-process
// backends on both codecs. Backend handler spans are children of the
// proxy's span, so route's self time excludes the backends.
func (p *pass) route() error {
	tr, out := p.tr, p.out
	var spec []string
	for i := 0; i < 2; i++ {
		b := service.New(p.db, nil, service.Options{})
		defer b.Close()
		hl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("service.backend%d", i)
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			b.ServeHTTP(w, r)
			tr.record(name, tr.parent.Load(), t0, time.Now())
		})}
		go hs.Serve(hl) //nolint:errcheck // ends at Close below
		defer hs.Close()
		go b.ServeWire(wl) //nolint:errcheck // ends when b.Close closes the listener
		spec = append(spec, hl.Addr().String()+"|"+wl.Addr().String())
	}
	groups, err := route.ParseGroups(strings.Join(spec, ";"))
	if err != nil {
		return err
	}
	ring, err := route.New(groups, 0)
	if err != nil {
		return err
	}
	proxy := route.NewProxyWithOptions(ring, nil, route.Options{})
	defer proxy.Close()

	var key []byte
	const splitReps = 20
	picked := 0
	d := tr.timeCall("route.split", func(int64) {
		for r := 0; r < splitReps; r++ {
			for i := range p.queries {
				key = route.RoutingKey(key[:0], &p.queries[i])
				picked += ring.PickHash(route.Hash(key))
			}
		}
	})
	if picked == 0 {
		p.chk.failf("layer pass: the ring sent every query to group 0")
	}
	out.set("route.split_ns_per_query", "ns", float64(d.Nanoseconds())/float64(splitReps*len(p.queries)))

	p.serveJSON(proxy, "", p.warmBodies)
	pre := metricsOf(proxy)
	fwd := p.serveJSON(proxy, "route.json", p.timedBodies)
	post := metricsOf(proxy)
	out.set("route.forward_us_per_batch", "us", meanUs(fwd)-meanUs(p.directJSON))
	delta := func(name string) float64 { return post[name] - pre[name] }
	p.setDefault("route.split_share", "fraction", delta("qosrmad_route_splits_total")/delta("qosrmad_route_requests_total"))
	p.setDefault("route.retries", "count", delta("qosrmad_route_retries_total"))
	p.setDefault("route.failures", "count", delta("qosrmad_route_exhausted_total"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	wp := proxy.ServeWire(ln)
	wc, err := dialWire(wp.Addr())
	if err != nil {
		return err
	}
	defer wc.c.Close()
	// The first round warms the tier's backend pools and the caches.
	if _, err := p.wireRoundTrips(wc, "", p.hotFrames, 1); err != nil {
		return err
	}
	ds, err := p.wireRoundTrips(wc, "route.wire", p.hotFrames, 100)
	if err != nil {
		return err
	}
	out.set("route.wire_forward_us_per_batch", "us", meanUs(ds)-meanUs(p.directHit))
	return nil
}

// fleet replays the equilibrium run's arrivals through the solver, times
// the scorer on the tenant sets they saw, and runs the scored-placement
// floor on the same trace.
func (p *pass) fleet(seed uint64, eqRes *cluster.Result) error {
	db, tr, out := p.db, p.tr, p.out
	jobs := fleetArrivals(db, seed)
	if eqRes == nil {
		var err error
		t0 := time.Now()
		if eqRes, err = cluster.Run(db, fleetSpec(db, jobs, cluster.PlaceEquilibrium, fleetWorkers)); err != nil {
			return err
		}
		tr.record("cluster.run_equilibrium", 0, t0, time.Now())
	}
	replayFleet(db, tr, eqRes, out, p.chk)
	var (
		scored *cluster.Result
		err    error
	)
	d := tr.timeCall("cluster.run_scored", func(int64) {
		scored, err = cluster.Run(db, fleetSpec(db, jobs, cluster.PlaceScored, fleetWorkers))
	})
	if err != nil {
		return err
	}
	out.set("cluster.scored_wall_s", "s", d.Seconds())
	out.set("rmasim.intervals_per_s", "1/s", float64(scored.Intervals)/d.Seconds())
	out.set("cluster.savings_pct", "%", eqRes.EnergySavings*100)
	out.set("cluster.qos_violations", "count", float64(eqRes.Violations))
	return nil
}

// replayFleet re-solves, with the public equilibrium.Solve, the game the
// engine solved at each arrival: the tenant set present then (rebuilt
// from the run's start and finish times, in the engine's machine/core
// order) plus the arrival, warm-started from the physical layout.
func replayFleet(db *simdb.DB, tr *tracer, res *cluster.Result, out *outcome, chk *checks) {
	sc := sched.NewScorer(db)
	n := db.Sys.NumCores
	var (
		solveMs   []float64
		rounds    float64
		solved    int
		fallbacks int
		sets      [][]string
	)
	for ji, jr := range res.Jobs {
		if jr.WaitSec != 0 {
			continue // admitted from the queue: the engine solved nothing
		}
		t := jr.Job.TimeSec
		type tenant struct {
			machine, core int
			bench         string
		}
		var present []tenant
		for k, o := range res.Jobs {
			if k != ji && o.FinishSec > t && (o.StartSec < t || (o.StartSec == t && k < ji)) {
				present = append(present, tenant{o.Machine, o.Core, o.Job.Bench})
			}
		}
		sort.Slice(present, func(a, b int) bool {
			if present[a].machine != present[b].machine {
				return present[a].machine < present[b].machine
			}
			return present[a].core < present[b].core
		})
		load := make([]int, fleetMachines)
		perMachine := make([][]string, fleetMachines)
		var players []string
		var initial []int
		for _, p := range present {
			players = append(players, p.bench)
			initial = append(initial, p.machine)
			load[p.machine]++
			perMachine[p.machine] = append(perMachine[p.machine], p.bench)
		}
		arrival := len(players)
		players = append(players, jr.Job.Bench)
		for m := range load {
			if load[m] < n {
				initial = append(initial, m)
				sets = append(sets, append(append([]string(nil), perMachine[m]...), jr.Job.Bench))
				break
			}
		}
		var eq *equilibrium.Equilibrium
		var err error
		d := tr.timeCall("equilibrium.solve", func(int64) {
			eq, err = equilibrium.Solve(sc, players, equilibrium.Config{
				Machines: fleetMachines,
				Capacity: n,
				Seed:     stats.SeedFrom(uint64(arrival), "cluster/equilibrium-place"),
				Initial:  initial,
			})
		})
		solveMs = append(solveMs, d.Seconds()*1e3)
		if err != nil {
			fallbacks++ // no certified equilibrium: the engine placed by score
			continue
		}
		solved++
		rounds += float64(eq.Rounds)
		if m := eq.Assignment[arrival]; m != jr.Machine {
			if load[m] < n {
				chk.failf("fleet: job %d went to machine %d, but its equilibrium machine %d had a free core", jr.Job.ID, jr.Machine, m)
			}
			fallbacks++ // equilibrium machine physically full: placed by score
		}
	}
	out.set("equilibrium.solves", "count", float64(len(solveMs)))
	out.set("equilibrium.solve_ms", "ms", stats.Mean(solveMs))
	if solved > 0 {
		out.set("equilibrium.rounds_mean", "count", rounds/float64(solved))
	} else {
		out.set("equilibrium.rounds_mean", "count", 0)
	}
	out.set("equilibrium.fallbacks", "count", float64(fallbacks))

	// The scorer, warm from the replay, on the tenant sets it saw.
	var buf sched.ScoreBuf
	const scoreReps = 20
	d := tr.timeCall("sched.score", func(int64) {
		for r := 0; r < scoreReps; r++ {
			for _, s := range sets {
				sc.ScoreInto(s, &buf) //nolint:errcheck // every set was scored during the replay
			}
		}
	})
	out.set("sched.score_us_warm", "us", float64(d.Nanoseconds())/1e3/float64(scoreReps*len(sets)))
}
