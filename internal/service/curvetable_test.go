package service

import (
	"math"
	"net/http"
	"testing"

	"qosrma/internal/core"
	"qosrma/internal/ops"
	"qosrma/internal/stats"
)

// tableSweepQueries builds the curve-table equivalence workload: every
// scheme under every model and three slack shapes (none, uniform,
// per-core mixed including a zero), each over the same seeded co-phase
// vectors. It returns the wire-form queries with the library
// arguments each one resolves to.
func tableSweepQueries(t *testing.T, vectors int) ([]DecideQuery, []core.Scheme, []core.ModelKind, [][]float64) {
	t.Helper()
	db := testDB(t)
	n := db.Sys.NumCores
	uniform := make([]float64, n)
	mixed := make([]float64, n)
	for c := range mixed {
		uniform[c] = 0.2
		mixed[c] = []float64{0, 0.1, 0.25, 0.4}[c%4]
	}
	rng := stats.NewRNG(stats.SeedFrom(17, "service/curve-table-test"))
	apps := make([][]AppQuery, vectors)
	for v := range apps {
		apps[v] = queryFor(db, rng, "", 0).Apps
	}
	var (
		queries []DecideQuery
		schemes []core.Scheme
		models  []core.ModelKind
		slacks  [][]float64
	)
	for _, sc := range []struct {
		wire   string
		scheme core.Scheme
	}{
		{"static", core.SchemeStatic},
		{"dvfs", core.SchemeDVFSOnly},
		{"rm1", core.SchemePartitionOnly},
		{"rm2", core.SchemeCoordDVFSCache},
		{"rm3", core.SchemeCoordCoreDVFSCache},
		{"ucp", core.SchemeUCPDVFS},
	} {
		for _, m := range []struct {
			wire int
			kind core.ModelKind
		}{{1, core.Model1}, {2, core.Model2}, {3, core.Model3}} {
			for shape := 0; shape < 3; shape++ {
				for _, a := range apps {
					q := DecideQuery{Scheme: sc.wire, Model: m.wire, Apps: a}
					var slack []float64
					switch shape {
					case 1:
						q.Slack = 0.2
						slack = uniform
					case 2:
						q.Slacks = mixed
						slack = mixed
					}
					queries = append(queries, q)
					schemes = append(schemes, sc.scheme)
					models = append(models, m.kind)
					slacks = append(slacks, slack)
				}
			}
		}
	}
	return queries, schemes, models, slacks
}

// TestCurveTableMatchesLibrary is the curve table's bit-identity wall:
// with the decision cache off, every answer comes from the shard curve
// tables — cold on the first pass, warm on the second — and
// must equal both the fresh-manager path (computeFresh) and the
// sequential library invocation, at one shard and at three.
func TestCurveTableMatchesLibrary(t *testing.T) {
	db := testDB(t)
	wireQs, schemes, models, slacks := tableSweepQueries(t, 64)
	for _, shards := range []int{1, 3} {
		srv := New(db, nil, Options{Shards: shards, Batch: 8, CacheSize: -1})
		sn := srv.snap.Load()
		queries := make([]queryKey, len(wireQs))
		for i := range wireQs {
			q, err := resolveQuery(sn, &wireQs[i])
			if err != nil {
				t.Fatal(err)
			}
			queries[i] = q
		}
		for pass, name := range []string{"cold", "warm"} {
			results, err := srv.decide(sn, queries)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				if fresh := computeFresh(sn, queries[i]); !res.equal(fresh) {
					t.Fatalf("shards=%d %s query %d (%v model %d slack %v): table %+v, fresh manager %+v",
						shards, name, i, schemes[i], models[i], slacks[i], res, fresh)
				}
				if pass > 0 {
					continue // the fresh path was held to the library on the cold pass
				}
				wantOK, want := libraryDecide(db, schemes[i], models[i], slacks[i], wireQs[i].Apps)
				if res.decided != wantOK || (wantOK && !res.equal(decideResult{decided: true, settings: want})) {
					t.Fatalf("shards=%d query %d (%v model %d slack %v): table %+v, library %v %v",
						shards, i, schemes[i], models[i], slacks[i], res, wantOK, want)
				}
			}
		}
		var hits, rows uint64
		for _, sh := range srv.shards {
			hits += sh.hits.Load()
			rows += uint64(len(sh.table.rows))
		}
		srv.Close()
		if hits != 0 {
			t.Fatalf("shards=%d: %d cache hits with the cache off", shards, hits)
		}
		if rows == 0 {
			t.Fatalf("shards=%d: no curve-table rows were built", shards)
		}
	}
}

// TestShardConfigStateBounded: a client sweeping slack values must not
// grow a shard's curve table without limit. 10k distinct slacks under
// rm2 and dvfs keep the table at or under maxShardConfigs rows, and
// every answer still equals the library's.
func TestShardConfigStateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("10k library references")
	}
	db := testDB(t)
	srv := New(db, nil, Options{Shards: 1, Batch: 16, CacheSize: -1})
	defer srv.Close()
	sn := srv.snap.Load()
	sh := srv.shards[0]
	rng := stats.NewRNG(stats.SeedFrom(23, "service/bounded-state-test"))
	const distinct, batch = 10000, 250
	for lo := 0; lo < distinct; lo += batch {
		var (
			wireQs  []DecideQuery
			queries []queryKey
		)
		for k := lo; k < lo+batch; k++ {
			scheme := "rm2"
			if k%2 == 1 {
				scheme = "dvfs"
			}
			q := queryFor(db, rng, scheme, 0.001*float64(k+1))
			rq, err := resolveQuery(sn, &q)
			if err != nil {
				t.Fatal(err)
			}
			wireQs = append(wireQs, q)
			queries = append(queries, rq)
		}
		results, err := srv.decide(sn, queries)
		if err != nil {
			t.Fatal(err)
		}
		// decide returned after every task's wg.Done, so the worker's
		// writes to its table happen-before this read.
		if len(sh.table.rows) > maxShardConfigs {
			t.Fatalf("after %d slacks: %d table rows (cap %d)",
				lo+batch, len(sh.table.rows), maxShardConfigs)
		}
		for i, res := range results {
			q := queries[i]
			wantOK, want := libraryDecide(db, q.scheme(), q.model(), q.slacks(db.Sys.NumCores), wireQs[i].Apps)
			if res.decided != wantOK || (wantOK && !res.equal(decideResult{decided: true, settings: want})) {
				t.Fatalf("slack %g %s: served %+v, library %v %v", wireQs[i].Slack, wireQs[i].Scheme, res, wantOK, want)
			}
		}
	}
}

// TestSelfCheckerAuditsCurveTable: the self-checker still has teeth with
// the curve table in front of the managers. After a query is decided
// and cached, corrupting one Option of one of its table curves — the
// state every later miss on that (bench, phase) would read — fails the
// audit and degrades /v1/healthz to 503, although the cached answer
// itself is intact.
func TestSelfCheckerAuditsCurveTable(t *testing.T) {
	db := testDB(t)
	srv, ts := testServer(t, Options{Shards: 1, CacheSize: 16})
	rng := stats.NewRNG(stats.SeedFrom(67, "service/table-checker-test"))
	q := queryFor(db, rng, "rm2", 0.2)
	var resp DecideResponse
	if code := postJSON(t, ts.URL+"/v1/decide", q, &resp); code != http.StatusOK || !resp.Result.Decided {
		t.Fatalf("decide status %d result %+v", code, resp.Result)
	}
	var rep ops.AuditReport
	if code := postJSON(t, ts.URL+"/admin/check", nil, &rep); code != http.StatusOK || rep.Sampled != 1 || rep.Mismatches != 0 {
		t.Fatalf("clean audit: status %d report %+v", code, rep)
	}

	// Corrupt the frequency of the Option core 0 was assigned. The worker
	// is idle and its next access happens-after the audit task's channel
	// send, as in TestSelfCheckerDetectsCorruption.
	sh := srv.shards[0]
	id, _ := db.BenchIDOf(q.Apps[0].Bench)
	row := sh.table.rows[curveKey{scheme: core.SchemeCoordDVFSCache, model: core.Model2, slack: 0.2}]
	if row == nil {
		t.Fatal("the decided query left no curve-table row")
	}
	c := &row.curves[sh.sn.pairBase[id]+q.Apps[0].Phase]
	o := &c.Options[resp.Result.Settings[0].Ways]
	o.FreqIdx = (o.FreqIdx + 1) % len(db.Sys.DVFS)

	if code := postJSON(t, ts.URL+"/admin/check", nil, &rep); code != http.StatusServiceUnavailable || rep.Mismatches < 1 {
		t.Fatalf("corrupted-table audit: status %d report %+v", code, rep)
	}
	var h HealthStats
	if code := getJSON(t, ts.URL+"/v1/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("degraded healthz: status %d %q", code, h.Status)
	}
}

// TestResolveRejectsNonFiniteSlack: the JSON resolver refuses NaN and
// ±Inf slack, uniform or per core, as the wire resolver does (JSON text
// cannot carry them, so this drives resolveQuery directly; the handler
// turns its error into a 400).
func TestResolveRejectsNonFiniteSlack(t *testing.T) {
	db := testDB(t)
	srv := New(db, nil, Options{Shards: 1})
	defer srv.Close()
	sn := srv.snap.Load()
	rng := stats.NewRNG(stats.SeedFrom(29, "service/nonfinite-test"))
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := queryFor(db, rng, "rm2", v)
		if _, err := resolveQuery(sn, &q); err == nil {
			t.Fatalf("uniform slack %g accepted", v)
		}
		q.Slack = 0
		q.Slacks = []float64{0, 0.1, v, 0.2}
		if _, err := resolveQuery(sn, &q); err == nil {
			t.Fatalf("per-core slack %g accepted", v)
		}
	}
}
