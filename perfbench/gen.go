package main

import (
	"crypto/sha256"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"qosrma/internal/arch"
	"qosrma/internal/core"
	"qosrma/internal/power"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

const (
	wireBatch   = 256
	wireConns   = 2
	hotPop      = 512
	slack       = 0.2
	coldRM3Odds = 8 // one wire-cold batch in this many is RM3
)

// pair is one core's occupant: a (benchmark, phase) of the database.
type pair struct {
	id    simdb.BenchID
	phase int
}

// vec is one co-phase vector, one pair per core.
type vec []pair

// space enumerates every (benchmark, phase) pair of the database so a
// co-phase vector can be addressed by one integer in [0, T^cores).
type space struct {
	pairs []pair
	cores int
	size  uint64 // T^cores
}

func newSpace(db *simdb.DB) *space {
	s := &space{cores: db.Sys.NumCores}
	for id := 0; id < db.NumBenches(); id++ {
		for ph := 0; ph < db.NumPhases(db.BenchName(simdb.BenchID(id))); ph++ {
			s.pairs = append(s.pairs, pair{simdb.BenchID(id), ph})
		}
	}
	s.size = 1
	for c := 0; c < s.cores; c++ {
		s.size *= uint64(len(s.pairs))
	}
	return s
}

// permutation is x -> (a*x + b) mod n with gcd(a, n) = 1: a seeded
// bijection on [0, n), so distinct inputs give distinct vectors.
type permutation struct{ a, b, n uint64 }

func (s *space) permutation(seed uint64, label string) permutation {
	rng := stats.NewRNG(stats.SeedFrom(seed, label))
	for {
		a := rng.Uint64() % s.size
		if a > 0 && gcd(a, s.size) == 1 {
			return permutation{a, rng.Uint64() % s.size, s.size}
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (p permutation) at(x uint64) uint64 {
	hi, lo := bits.Mul64(p.a, x)
	lo, carry := bits.Add64(lo, p.b, 0)
	return bits.Rem64(hi+carry, lo, p.n)
}

// vecAt decodes the vector at permuted index i.
func (s *space) vecAt(p permutation, i uint64) vec {
	v := p.at(i)
	out := make(vec, s.cores)
	t := uint64(len(s.pairs))
	for c := range out {
		out[c] = s.pairs[v%t]
		v /= t
	}
	return out
}

// hotPopulation draws wire-hot's uniform population of co-phase vectors:
// each core a uniform benchmark, then a uniform phase of it.
func hotPopulation(db *simdb.DB, seed uint64) []vec {
	rng := stats.NewRNG(stats.SeedFrom(seed, "perfbench/hot"))
	out := make([]vec, hotPop)
	for i := range out {
		v := make(vec, db.Sys.NumCores)
		for c := range v {
			id := simdb.BenchID(rng.Intn(db.NumBenches()))
			v[c] = pair{id, rng.Intn(db.NumPhases(db.BenchName(id)))}
		}
		out[i] = v
	}
	return out
}

// wireFrame encodes one DecideRequest frame for the vectors.
func wireFrame(dst []byte, db *simdb.DB, hash uint64, seq uint32, scheme core.Scheme, vs []vec) []byte {
	req := wire.DecideRequest{
		Seq:    seq,
		DBHash: hash,
		Scheme: uint8(scheme),
		Flags:  wire.FlagSlackUniform,
		Slack:  slack,
		NCores: uint8(db.Sys.NumCores),
	}
	for _, v := range vs {
		for _, p := range v {
			req.Apps = append(req.Apps, wire.App{Bench: uint16(p.id), Phase: uint16(p.phase)})
		}
	}
	return wire.AppendDecideRequest(dst, &req)
}

// hotWireFrames encodes the wire-hot population as RM2 frames.
func hotWireFrames(db *simdb.DB, hash uint64, pop []vec) [][]byte {
	var fs [][]byte
	for i := 0; i < len(pop)/wireBatch; i++ {
		fs = append(fs, wireFrame(nil, db, hash, uint32(i), core.SchemeCoordDVFSCache, pop[i*wireBatch:(i+1)*wireBatch]))
	}
	return fs
}

// coldStream is wire-cold's query stream: batch g (global index, dealt
// round-robin to the connections) holds vectors g*batch .. g*batch+batch-1
// of a seeded permutation of the whole vector space, so no vector repeats
// within a run. The scheme draw is stateless in g so the senders can
// generate concurrently.
type coldStream struct {
	sp         *space
	perm       permutation
	schemeSeed uint64
}

func newColdStream(sp *space, seed uint64) *coldStream {
	return &coldStream{
		sp:         sp,
		perm:       sp.permutation(seed, "perfbench/cold/vectors"),
		schemeSeed: stats.SeedFrom(seed, "perfbench/cold/scheme"),
	}
}

// scheme returns batch g's scheme: each block of coldRM3Odds consecutive
// batches holds exactly one RM3 batch at a seeded position, so every
// seed gives the same scheme mix.
func (cs *coldStream) scheme(g int) core.Scheme {
	block := uint64(g / coldRM3Odds)
	if stats.NewRNG(cs.schemeSeed+block).Intn(coldRM3Odds) == g%coldRM3Odds {
		return core.SchemeCoordCoreDVFSCache
	}
	return core.SchemeCoordDVFSCache
}

func (cs *coldStream) vectors(g int) []vec {
	out := make([]vec, wireBatch)
	for j := range out {
		out[j] = cs.sp.vecAt(cs.perm, uint64(g*wireBatch+j))
	}
	return out
}

// zipf samples ranks in [0, n) with P(r) proportional to 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipf) draw(rng *stats.RNG) int {
	u := rng.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// appendJSONBatch renders a /v1/decide batch body for the vectors.
func appendJSONBatch(dst []byte, db *simdb.DB, scheme string, vs []vec) []byte {
	dst = append(dst, `{"queries":[`...)
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"scheme":"`...)
		dst = append(dst, scheme...)
		dst = append(dst, `","slack":`...)
		dst = strconv.AppendFloat(dst, slack, 'g', -1, 64)
		dst = append(dst, `,"apps":[`...)
		for c, p := range v {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"bench":"`...)
			dst = append(dst, db.BenchName(p.id)...)
			dst = append(dst, `","phase":`...)
			dst = strconv.AppendInt(dst, int64(p.phase), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, "]}"...)
}

// digest hashes a stream prefix: the generator check compares it across
// regenerations (same seed, identical bytes) and seeds (different bytes).
func digest(chunks [][]byte) [32]byte {
	h := sha256.New()
	for _, c := range chunks {
		h.Write(c) //nolint:errcheck // hash writes cannot fail
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// checkStream verifies the generator: gen(seed) twice is byte-identical
// and gen(seed+1) differs.
func checkStream(chk *checks, name string, seed uint64, gen func(seed uint64) [][]byte) {
	a, b, c := digest(gen(seed)), digest(gen(seed)), digest(gen(seed+1))
	if a != b {
		chk.failf("%s: same seed produced different query streams", name)
	}
	if a == c {
		chk.failf("%s: seeds %d and %d produced the same query stream", name, seed, seed+1)
	}
}

// reference recomputes decisions with the public library calls only:
// FillOracleStats, a fresh NewManager with the default power model, and
// DecideAll — the path TestDecideMatchesLibrary pins.
type reference struct {
	db    *simdb.DB
	stats []core.IntervalStats
	ptrs  []*core.IntervalStats
}

func newReference(db *simdb.DB) *reference {
	n := db.Sys.NumCores
	r := &reference{db: db, stats: make([]core.IntervalStats, n), ptrs: make([]*core.IntervalStats, n)}
	for i := range r.ptrs {
		r.ptrs[i] = &r.stats[i]
	}
	return r
}

func modelFor(scheme core.Scheme) core.ModelKind {
	if scheme == core.SchemeCoordCoreDVFSCache {
		return core.Model3
	}
	return core.Model2
}

func (r *reference) decide(scheme core.Scheme, v vec) (bool, []arch.Setting) {
	db := r.db
	n := db.Sys.NumCores
	sl := make([]float64, n)
	for i := range sl {
		sl[i] = slack
	}
	mgr := core.NewManager(core.Config{
		Sys:    db.Sys,
		Power:  power.DefaultParams(db.Sys),
		Scheme: scheme,
		Model:  modelFor(scheme),
		Slack:  sl,
	})
	for i, p := range v {
		service.FillOracleStats(db, p.id, p.phase, i, &r.stats[i])
	}
	settings, ok := mgr.DecideAll(r.ptrs)
	if !ok {
		settings = make([]arch.Setting, n)
		for i := range settings {
			settings[i] = db.Sys.BaselineSetting()
		}
	}
	return ok, append([]arch.Setting(nil), settings...)
}

// wireMatches compares one served wire answer with the reference.
func (r *reference) wireMatches(scheme core.Scheme, v vec, decided bool, got []wire.Setting) bool {
	ok, want := r.decide(scheme, v)
	if ok != decided || len(got) != len(want) {
		return false
	}
	for i, s := range want {
		if got[i] != (wire.Setting{Size: uint8(s.Size), Freq: uint8(s.FreqIdx), Ways: uint8(s.Ways)}) {
			return false
		}
	}
	return true
}

// jsonMatches compares one served JSON answer with the reference.
func (r *reference) jsonMatches(scheme core.Scheme, v vec, got service.DecideAnswer) bool {
	ok, want := r.decide(scheme, v)
	if ok != got.Decided || len(got.Settings) != len(want) {
		return false
	}
	for i, s := range want {
		exp := service.SettingJSON{
			Size:    s.Size.String(),
			FreqIdx: s.FreqIdx,
			FreqGHz: r.db.Sys.DVFS[s.FreqIdx].FreqGHz,
			Ways:    s.Ways,
		}
		if got.Settings[i] != exp {
			return false
		}
	}
	return true
}

// dbHash64 is the database fingerprint as the binary protocol carries it.
func dbHash64(db *simdb.DB) uint64 {
	h, _ := strconv.ParseUint(db.Fingerprint(), 16, 64)
	return h
}
