package service

import (
	"sync"
	"testing"

	"qosrma/internal/core"
	"qosrma/internal/wire"
)

// Pins backing the //qosrma:noalloc annotations on the shard worker: a
// warm shard answers a repeated query without allocating (process, cache
// hit) and recomputes with exactly one allocation (compute and the curve
// table's decide — the fresh settings slice the cache retains) for
// static, dvfs, rm1, rm2 and rm3. UCP adds the allocation vector its
// lookahead returns.

func testShardQuery(t *testing.T) (*Server, *shard, queryKey) {
	t.Helper()
	return testShardQueryFor(t, "")
}

// testShardQueryFor resolves a one-bench co-phase query under a scheme
// against a fresh single-shard server.
func testShardQueryFor(t *testing.T, scheme string) (*Server, *shard, queryKey) {
	t.Helper()
	db := testDB(t)
	srv := New(db, nil, Options{Shards: 1})
	t.Cleanup(func() { srv.Close() })
	sn := srv.snap.Load()
	apps := make([]AppQuery, db.Sys.NumCores)
	for i := range apps {
		apps[i] = AppQuery{Bench: db.BenchName(0), Phase: 0}
	}
	q, err := resolveQuery(sn, &DecideQuery{Scheme: scheme, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	return srv, srv.shards[0], q
}

func TestShardComputeSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		want   float64
	}{{"static", 1}, {"dvfs", 1}, {"rm1", 1}, {"rm2", 1}, {"rm3", 1}, {"ucp", 2}} {
		_, sh, q := testShardQueryFor(t, tc.scheme)
		if res := sh.compute(q); res.decided != (tc.scheme != "static") {
			t.Fatalf("%s: warm-up compute decided=%v", tc.scheme, res.decided)
		}
		got := testing.AllocsPerRun(100, func() {
			sh.compute(q)
		})
		if got != tc.want {
			t.Fatalf("%s: shard.compute allocated %.0f times per call, want exactly %.0f", tc.scheme, got, tc.want)
		}
	}
}

// TestCurveTableWarmDecideAllocs pins the table path on its own: once a
// query's curves are built, decide allocates only the settings slice.
func TestCurveTableWarmDecideAllocs(t *testing.T) {
	_, sh, q := testShardQueryFor(t, "rm3")
	if _, ok := sh.table.decide(q); !ok {
		t.Fatal("warm-up table decide made no decision")
	}
	got := testing.AllocsPerRun(100, func() {
		sh.table.decide(q)
	})
	if got != 1 {
		t.Fatalf("curveTable.decide allocated %.0f times per warm call, want exactly 1 (the settings slice)", got)
	}
}

func TestShardProcessHitSteadyStateAllocs(t *testing.T) {
	srv, sh, q := testShardQuery(t)
	sn := srv.snap.Load()
	var res decideResult
	var wg sync.WaitGroup
	wg.Add(1)
	h := keyHash(q)
	sh.process(task{key: q, h: h, sn: sn, res: &res, wg: &wg}) // miss: computes and caches
	if !res.decided {
		t.Fatal("warm-up process made no decision")
	}
	got := testing.AllocsPerRun(100, func() {
		wg.Add(1)
		sh.process(task{key: q, h: h, sn: sn, res: &res, wg: &wg})
	})
	if got != 0 {
		t.Fatalf("shard.process allocated %.0f times per cached decision, want 0", got)
	}
}

// TestWireFrameHitAllocs: once its keys are cached, a wire frame resolves
// into the connection's key arena and fans out on the connection's
// WaitGroup without a single heap allocation.
func TestWireFrameHitAllocs(t *testing.T) {
	db := testDB(t)
	srv := New(db, nil, Options{Shards: 2, CacheSize: 64})
	t.Cleanup(func() { srv.Close() })
	sn := srv.snap.Load()
	n := db.Sys.NumCores
	var sc wireScratch
	sc.req = wire.DecideRequest{Scheme: uint8(core.SchemeCoordDVFSCache), NCores: uint8(n),
		Flags: wire.FlagSlackUniform, Slack: 0.1}
	for qi := 0; qi < 8; qi++ {
		for c := 0; c < n; c++ {
			sc.req.Apps = append(sc.req.Apps, wire.App{Bench: uint16((qi + c) % len(db.Benches))})
		}
	}
	frame := func() {
		count, _, err := srv.resolveWireQueries(sn, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.decideInto(sn, sc.keys, sc.results[:count], &sc.wg); err != nil {
			t.Fatal(err)
		}
	}
	frame() // misses: computes and caches every key
	hits := func() (sum uint64) {
		for _, sh := range srv.shards {
			sum += sh.hits.Load()
		}
		return sum
	}
	before := hits()
	if got := testing.AllocsPerRun(100, frame); got != 0 {
		t.Fatalf("a warm all-hit wire frame allocated %.0f times, want 0", got)
	}
	// AllocsPerRun makes one warm-up call besides the measured runs.
	if got, want := hits()-before, uint64(101*8); got != want {
		t.Fatalf("%d cache hits over the measured frames, want %d", got, want)
	}
}
