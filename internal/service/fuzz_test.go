package service

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qosrma/internal/core"
	"qosrma/internal/simdb"
	"qosrma/internal/wire"
)

// fuzzServer memoizes one server for the whole fuzz run; the handlers are
// safe for the concurrent calls the fuzz engine makes.
var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

func fuzzServer(t testing.TB) *Server {
	fuzzSrvOnce.Do(func() {
		fuzzSrv = New(testDB(t), nil, Options{Shards: 2, Batch: 4, CacheSize: 64})
	})
	return fuzzSrv
}

// FuzzDecideRequest pins the request-decoding hardening invariant: no
// body, however malformed, may crash the server or surface as a 5xx —
// malformed JSON, wrong arities, unknown benchmarks and out-of-range
// phases all answer 4xx, and well-formed queries answer 200. The seed
// corpus (testdata/fuzz/FuzzDecideRequest) covers both sides.
func FuzzDecideRequest(f *testing.F) {
	f.Add(`{"scheme":"rm2","slack":0.2,"apps":[{"bench":"mcf","phase":0},{"bench":"astar","phase":1},{"bench":"bzip2","phase":0},{"bench":"gcc","phase":2}]}`)
	f.Add(`{"queries":[{"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}]}`)
	f.Add(``)
	f.Add(`{`)
	f.Add(`[]`)
	f.Add(`{"apps": 42}`)
	f.Add(`{"apps":[{"bench":"mcf","phase":-1}]}`)
	f.Add(`{"scheme":"rm9","apps":[]}`)
	f.Add(`{"model":99,"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`)
	f.Add(`{"slacks":[0.1,0.2],"apps":[{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0},{"bench":"mcf","phase":0}]}`)
	f.Add(`{"apps":[{"bench":"\u0000","phase":9999999999},{"bench":"mcf"},{"bench":"mcf"},{"bench":"mcf"}]}`)
	f.Add(strings.Repeat(`{"queries":[`, 50))

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/decide", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("body %q answered %d:\n%s", body, rec.Code, rec.Body.String())
		}
		if rec.Code != 200 && rec.Code != 400 {
			t.Fatalf("body %q answered unexpected status %d", body, rec.Code)
		}
	})
}

// FuzzWireDecideFrame is FuzzDecideRequest for the binary codec: any
// DecideRequest payload either fails to parse, is refused by
// resolveWireQueries, or resolves to keys that decode back to the
// frame's scheme, model, per-core slack, bench and phase, whose every
// slack is finite and non-negative, and which decide to one full
// settings vector each. JSON cannot carry NaN or Inf; a wire frame can,
// so the seed corpus (testdata/fuzz/FuzzWireDecideFrame) includes
// non-finite slacks.
func FuzzWireDecideFrame(f *testing.F) {
	apps := []wire.App{{Bench: 0}, {Bench: 1}, {Bench: 2}, {Bench: 3}}
	for _, req := range []wire.DecideRequest{
		{Seq: 1, Scheme: 3, NCores: 4, Apps: apps},
		{Seq: 2, Scheme: 4, NCores: 4, Flags: wire.FlagSlackUniform, Slack: 0.2, Apps: apps},
		{Seq: 3, Scheme: 3, NCores: 4, Flags: wire.FlagSlackUniform, Slack: math.NaN(), Apps: apps},
		{Seq: 4, Scheme: 2, NCores: 4, Flags: wire.FlagSlackUniform, Slack: math.Inf(1), Apps: apps},
		{Seq: 5, Scheme: 3, NCores: 4, Flags: wire.FlagSlackPerCore, Slacks: []float64{0, 0.1, math.Inf(-1), 0.3}, Apps: apps},
	} {
		f.Add(wire.AppendDecideRequest(nil, &req)[wire.HeaderSize:])
	}

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var sc wireScratch
		if wire.ParseDecideRequest(payload, &sc.req) != nil {
			return
		}
		sn := srv.snap.Load()
		count, _, err := srv.resolveWireQueries(sn, &sc)
		if err != nil {
			return
		}
		if len(sc.keys) != count {
			t.Fatalf("%d keys for %d queries", len(sc.keys), count)
		}
		req := &sc.req
		n := int(req.NCores)
		model, _ := parseModel(int(req.Model), core.Scheme(req.Scheme))
		for qi, k := range sc.keys {
			if k.scheme() != core.Scheme(req.Scheme) || k.model() != model {
				t.Fatalf("key %d decodes to scheme %d model %d, frame has %d/%d", qi, k.scheme(), k.model(), req.Scheme, req.Model)
			}
			for c := 0; c < n; c++ {
				want := 0.0
				switch {
				case req.Flags&wire.FlagSlackUniform != 0:
					want = req.Slack
				case req.Flags&wire.FlagSlackPerCore != 0:
					want = req.Slacks[c]
				}
				if v := k.slack(c); v != want || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("key %d decodes slack[%d] = %g, frame has %g", qi, c, v, want)
				}
				a := req.Apps[qi*n+c]
				if k.bench(c) != simdb.BenchID(a.Bench) || k.phase(c) != int(a.Phase) {
					t.Fatalf("key %d core %d decodes to (%d, %d), frame has (%d, %d)", qi, c, k.bench(c), k.phase(c), a.Bench, a.Phase)
				}
			}
		}
		if err := srv.decideInto(sn, sc.keys, sc.results[:count], &sc.wg); err != nil {
			t.Fatal(err)
		}
		for i, res := range sc.results[:count] {
			if len(res.settings) != sn.db.Sys.NumCores {
				t.Fatalf("query %d answered %d settings", i, len(res.settings))
			}
		}
	})
}

// FuzzScoreRequest: the same property for /v1/score (including the 409
// full-fleet placement answer).
func FuzzScoreRequest(f *testing.F) {
	f.Add(`{"apps":["mcf","astar"]}`)
	f.Add(`{"machines":[["mcf"],["astar","bzip2"]]}`)
	f.Add(`{"candidate":"mcf","machines":[["astar"]]}`)
	f.Add(`{"candidate":"nope","machines":[[]]}`)
	f.Add(`{"apps":[],"machines":[]}`)
	f.Add(`{"apps": {"x": 1}}`)
	f.Add(`null`)

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/score", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("body %q answered %d:\n%s", body, rec.Code, rec.Body.String())
		}
	})
}

// FuzzSweepRequest: sweep submissions must validate before spawning a
// job; malformed grids answer 4xx and never leave a running job behind.
func FuzzSweepRequest(f *testing.F) {
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"]}`)
	f.Add(`{"workloads":[],"schemes":["rm2"]}`)
	f.Add(`{"workloads":[["mcf"]],"schemes":["rm2"]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["bogus"]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"],"models":[9]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"],"slack_vectors":[[0.1,0.2]]}`)
	f.Add(`{"workloads":[["mcf","astar","bzip2","gcc"]],"schemes":["rm2"],"slacks":[-1]}`)
	f.Add(`{"workloads": "x"}`)

	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("body %q answered %d:\n%s", body, rec.Code, rec.Body.String())
		}
	})
}
