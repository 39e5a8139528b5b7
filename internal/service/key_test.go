package service

import (
	"bytes"
	"math"
	"testing"

	"qosrma/internal/core"
	"qosrma/internal/wire"
)

// TestQueryKey: the JSON and wire resolvers build byte-identical keys for
// the same semantics — every spelling of zero slack (nil, uniform 0, an
// all-zero vector, -0) keys as zero, and a uniform slack equals the same
// value given per core — and every accessor round-trips what was asked.
func TestQueryKey(t *testing.T) {
	db := testDB(t)
	srv := New(db, nil, Options{Shards: 1})
	defer srv.Close()
	sn := srv.snap.Load()
	n := db.Sys.NumCores
	names := db.BenchNames()
	apps := make([]AppQuery, n)
	wapps := make([]wire.App, n)
	for c := range apps {
		name := names[(3*c+1)%len(names)]
		id, _ := db.BenchIDOf(name)
		phase := c % db.NumPhases(name)
		apps[c] = AppQuery{Bench: name, Phase: phase}
		wapps[c] = wire.App{Bench: uint16(id), Phase: uint16(phase)}
	}
	uniform := func(v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	mixed := make([]float64, n)
	negZero := make([]float64, n) // mixed, with -0 where mixed has 0
	for i := range mixed {
		mixed[i] = 0.1 * float64(i%3)
		negZero[i] = mixed[i]
		if i%3 == 0 {
			negZero[i] = math.Copysign(0, -1)
		}
	}

	cases := []struct {
		name   string
		json   DecideQuery
		wire   wire.DecideRequest
		scheme core.Scheme
		model  core.ModelKind
		k      int
		slack  []float64
	}{
		{"nil slack", DecideQuery{Scheme: "rm2"},
			wire.DecideRequest{Scheme: uint8(core.SchemeCoordDVFSCache)},
			core.SchemeCoordDVFSCache, core.Model2, 0, uniform(0)},
		{"uniform zero", DecideQuery{Scheme: "rm2", Slack: 0},
			wire.DecideRequest{Scheme: uint8(core.SchemeCoordDVFSCache), Flags: wire.FlagSlackUniform},
			core.SchemeCoordDVFSCache, core.Model2, 0, uniform(0)},
		{"all-zero vector", DecideQuery{Scheme: "rm2", Slacks: uniform(0)},
			wire.DecideRequest{Scheme: uint8(core.SchemeCoordDVFSCache), Flags: wire.FlagSlackPerCore, Slacks: uniform(0)},
			core.SchemeCoordDVFSCache, core.Model2, 0, uniform(0)},
		{"uniform vs equal per core", DecideQuery{Scheme: "rm3", Slack: 0.2},
			wire.DecideRequest{Scheme: uint8(core.SchemeCoordCoreDVFSCache), Flags: wire.FlagSlackPerCore, Slacks: uniform(0.2)},
			core.SchemeCoordCoreDVFSCache, core.Model3, 1, uniform(0.2)},
		{"equal per core vs uniform", DecideQuery{Scheme: "dvfs", Model: 1, Slacks: uniform(0.3)},
			wire.DecideRequest{Scheme: uint8(core.SchemeDVFSOnly), Model: 1, Flags: wire.FlagSlackUniform, Slack: 0.3},
			core.SchemeDVFSOnly, core.Model1, 1, uniform(0.3)},
		{"mixed per core", DecideQuery{Scheme: "rm1", Model: 3, Slacks: mixed},
			wire.DecideRequest{Scheme: uint8(core.SchemePartitionOnly), Model: 3, Flags: wire.FlagSlackPerCore, Slacks: mixed},
			core.SchemePartitionOnly, core.Model3, n, mixed},
		{"-0 is zero", DecideQuery{Scheme: "rm2", Slacks: mixed},
			wire.DecideRequest{Scheme: uint8(core.SchemeCoordDVFSCache), Flags: wire.FlagSlackPerCore, Slacks: negZero},
			core.SchemeCoordDVFSCache, core.Model2, n, mixed},
		{"static", DecideQuery{Scheme: "static", Slack: 0.05},
			wire.DecideRequest{Scheme: uint8(core.SchemeStatic), Flags: wire.FlagSlackUniform, Slack: 0.05},
			core.SchemeStatic, core.Model2, 1, uniform(0.05)},
	}
	for _, tc := range cases {
		tc.json.Apps = apps
		jk, err := resolveQuery(sn, &tc.json)
		if err != nil {
			t.Fatalf("%s: JSON resolve: %v", tc.name, err)
		}
		tc.wire.NCores = uint8(n)
		tc.wire.Apps = wapps
		var sc wireScratch
		sc.req = tc.wire
		if count, _, err := srv.resolveWireQueries(sn, &sc); err != nil || count != 1 {
			t.Fatalf("%s: wire resolve: count %d, %v", tc.name, count, err)
		}
		if wk := sc.keys[0]; !bytes.Equal(jk, wk) {
			t.Fatalf("%s: JSON key %x, wire key %x", tc.name, jk, wk)
		}
		if jk.scheme() != tc.scheme || jk.model() != tc.model {
			t.Fatalf("%s: key decodes scheme %v model %v, want %v %v", tc.name, jk.scheme(), jk.model(), tc.scheme, tc.model)
		}
		if got, want := len(jk.config()), keyHead+8*tc.k; got != want || int(jk[2]) != tc.k {
			t.Fatalf("%s: config is %d bytes with k=%d, want %d bytes with k=%d", tc.name, got, jk[2], want, tc.k)
		}
		if want := keyHead + 8*tc.k + 4*n; len(jk) != want {
			t.Fatalf("%s: key is %d bytes, want %d", tc.name, len(jk), want)
		}
		for c := 0; c < n; c++ {
			id, _ := db.BenchIDOf(apps[c].Bench)
			if jk.slack(c) != tc.slack[c] || jk.bench(c) != id || jk.phase(c) != apps[c].Phase {
				t.Fatalf("%s: core %d decodes (%g, %d, %d), want (%g, %d, %d)", tc.name, c,
					jk.slack(c), jk.bench(c), jk.phase(c), tc.slack[c], id, apps[c].Phase)
			}
		}
	}
}
