package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"qosrma/internal/core"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/stats"
	"qosrma/internal/wire"
)

const (
	setupReps = 3 // set-ups per run; setup_s is their median

	// Latency limits behind slo_met_share, per workload: about twice the
	// batch p99 the seed commit measures on a 2-vCPU box.
	hotLimitMs  = 2
	coldLimitMs = 80
	jsonLimitMs = 25

	// json-tier-open: open-loop Poisson arrivals of jsonBatch-query
	// batches at jsonRate queries/s, about half the seed's closed-loop
	// capacity through this tier; keys Zipf(jsonZipfS) over jsonPop
	// co-phase vectors, ten times the two backends' summed LRU capacity
	// (2 backends x 2 shards x 4096 entries).
	jsonBatch    = 32
	jsonConns    = 2
	jsonRate     = 10000
	jsonPop      = 10 * 2 * 2 * 4096
	jsonZipfS    = 1.0
	jsonWarmup   = 5.0 // seconds of untimed arrivals that fill the LRUs
	lateLimitMs  = 5   // generator health: p99 send lateness above this invalidates the run
	jsonVerifyEv = 16  // one batch in this many is fully decoded and verified
	coldVerifyEv = 16
)

// server is one qosrmad child with its addresses.
type server struct {
	p        *proc
	httpAddr string
	wireAddr string
}

// spawnServer starts one decision server (wire listener optional).
func spawnServer(cfg config, name string, withWire bool) (*server, error) {
	s := &server{}
	var err error
	if s.httpAddr, err = freePort(); err != nil {
		return nil, err
	}
	args := []string{"-addr", s.httpAddr}
	if withWire {
		if s.wireAddr, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-wire-addr", s.wireAddr)
	}
	s.p, err = spawn(name, cfg.qosrmad, args...)
	return s, err
}

// waitUntil polls ready every 10 ms until it succeeds, the child dies or
// the deadline passes.
func waitUntil(ps []*proc, ready func() error) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		err := ready()
		if err == nil {
			return nil
		}
		for _, p := range ps {
			if perr := p.mustBeAlive(); perr != nil {
				return perr
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after 60s: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wireConn is one binary-protocol client connection.
type wireConn struct {
	c net.Conn
	r *wire.Reader
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &wireConn{c: c, r: wire.NewReader(c)}, nil
}

// meta runs the Hello -> Meta handshake.
func (w *wireConn) meta() (*wire.Meta, error) {
	if _, err := w.c.Write(wire.AppendHello(nil)); err != nil {
		return nil, err
	}
	typ, payload, err := w.r.Next()
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeMeta {
		return nil, fmt.Errorf("hello answered frame type %#x", typ)
	}
	var m wire.Meta
	return &m, wire.ParseMeta(payload, &m)
}

// roundTrip sends a decide frame and decodes the answer into resp; the
// raw payload (valid until the next call) is returned too.
func (w *wireConn) roundTrip(frame []byte, resp *wire.DecideResponse) ([]byte, error) {
	if _, err := w.c.Write(frame); err != nil {
		return nil, err
	}
	typ, payload, err := w.r.Next()
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeDecideResponse {
		if typ == wire.TypeError {
			_, code, msg, _ := wire.ParseError(payload)
			return nil, fmt.Errorf("error frame %v: %s", code, msg)
		}
		return nil, fmt.Errorf("unexpected frame type %#x", typ)
	}
	return payload, wire.ParseDecideResponse(payload, resp)
}

// scrape reads a Prometheus text exposition and sums each metric name's
// series over their labels.
func scrape(client *http.Client, addr string) (map[string]float64, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// counterDelta sums after-before over the scrapes for one metric name.
func counterDelta(before, after []map[string]float64, name string) float64 {
	d := 0.0
	for i := range after {
		d += after[i][name] - before[i][name]
	}
	return d
}

func scrapeAll(client *http.Client, addrs []string) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(addrs))
	for i, a := range addrs {
		m, err := scrape(client, a)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
		out[i] = m
	}
	return out, nil
}

// serviceRatios derives the decision-cache counters of one window.
func serviceRatios(before, after []map[string]float64) (hitRatio, rejectRatio, fanoutMs, queries float64) {
	hits := counterDelta(before, after, "qosrmad_decide_cache_hits_total")
	misses := counterDelta(before, after, "qosrmad_decide_cache_misses_total")
	rejected := counterDelta(before, after, "qosrmad_decide_admission_rejected_total")
	sum := counterDelta(before, after, "qosrmad_decide_request_seconds_sum")
	count := counterDelta(before, after, "qosrmad_decide_request_seconds_count")
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	if misses > 0 {
		rejectRatio = rejected / misses
	}
	if count > 0 {
		fanoutMs = sum / count * 1e3
	}
	return hitRatio, rejectRatio, fanoutMs, counterDelta(before, after, "qosrmad_decide_queries_total")
}

// topoCPU reads the children's summed CPU seconds.
func topoCPU(ps []*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		s, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func topoRSS(ps []*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// window is what one timed window of batches measured.
type window struct {
	lat       []float64 // batch latency in ms
	at        []float64 // when each latency sample was taken, in s from the window start
	answered  int64     // queries answered and checked
	attempted int64     // batches attempted
	failed    int64     // batches failed or answered wrongly
	withinSLO int64
	elapsed   time.Duration
	late      []float64 // open loop: send lateness in ms
}

func (w *window) merge(o *window) {
	w.lat = append(w.lat, o.lat...)
	w.at = append(w.at, o.at...)
	w.late = append(w.late, o.late...)
	w.answered += o.answered
	w.attempted += o.attempted
	w.failed += o.failed
	w.withinSLO += o.withinSLO
}

// subWindows splits a window for the medians that report takes: a
// burst of host noise moves one slice, not the reported figure.
const subWindows = 5

// sliceMedian cuts the window's samples into k equal time slices and
// returns the median over the slices of f(slice), with the slices.
func (w *window) sliceMedian(k int, f func([]float64) float64) (float64, []float64) {
	slices := make([][]float64, k)
	span := w.elapsed.Seconds() / float64(k)
	for i, t := range w.at {
		j := min(int(t/span), k-1)
		slices[j] = append(slices[j], w.lat[i])
	}
	vals := make([]float64, k)
	for j, sl := range slices {
		vals[j] = f(sl)
	}
	return stats.Percentile(vals, 50), vals
}

// report adds the serving end-to-end metrics of a window: throughput and
// the batch latency p50 and p90, each the median over subWindows equal
// slices of the window. The tail is p90, not p99: host stalls on a shared
// 2-vCPU machine move p99 several-fold between runs (README.md), while
// p90 keeps far more than ten samples beyond it in every slice.
func (w *window) report(out *outcome, setupS, rssMB float64, perBatch int) {
	span := w.elapsed.Seconds() / subWindows
	qps, qpsSlices := w.sliceMedian(subWindows, func(sl []float64) float64 { return float64(len(sl)*perBatch) / span })
	p50, p50Slices := w.sliceMedian(subWindows, func(sl []float64) float64 { return stats.Percentile(sl, 50) })
	p90, p90Slices := w.sliceMedian(subWindows, func(sl []float64) float64 { return stats.Percentile(sl, 90) })
	out.set("setup_s", "s", setupS)
	out.set("decide_qps", "1/s", qps)
	out.set("batch_p50_ms", "ms", p50)
	out.set("batch_p90_ms", "ms", p90)
	out.set("slo_met_share", "fraction", float64(w.withinSLO)/float64(w.attempted))
	out.set("rss_peak_mb", "MB", rssMB)
	out.attempted += w.attempted
	out.failed += w.failed
	logf("window: %d batches, %d failed, %.2fs, p99 %.3f ms; per slice qps %.0f p50 %.3f p90 %.3f",
		len(w.lat), w.failed, w.elapsed.Seconds(), stats.Percentile(w.lat, 99), qpsSlices, p50Slices, p90Slices)
}

// runWire drives wire-hot or wire-cold: one qosrmad, wireConns closed-loop
// binary connections with wireBatch-query frames.
func runWire(cfg config, db *simdb.DB, chk *checks, tr *tracer) (outcome, error) {
	var out outcome
	hot := cfg.workload == "wire-hot"
	hash := dbHash64(db)
	ref := newReference(db)
	sp := newSpace(db)

	// The query stream, and the generator's determinism check on it.
	var (
		pop       []vec
		hotFrames [][]byte
		cold      *coldStream
	)
	if hot {
		pop = hotPopulation(db, cfg.seed)
		hotFrames = hotWireFrames(db, hash, pop)
		checkStream(chk, cfg.workload, cfg.seed, func(seed uint64) [][]byte {
			return hotWireFrames(db, hash, hotPopulation(db, seed))
		})
	} else {
		cold = newColdStream(sp, cfg.seed)
		checkStream(chk, cfg.workload, cfg.seed, func(seed uint64) [][]byte {
			cs := newColdStream(sp, seed)
			var fs [][]byte
			for g := 0; g < 16; g++ {
				fs = append(fs, wireFrame(nil, db, hash, uint32(g), cs.scheme(g), cs.vectors(g)))
			}
			return fs
		})
	}

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	srv, ps, setupS, err := medianSetup(reps, func() (*server, []*proc, error) {
		s, err := spawnServer(cfg, "qosrmad", true)
		if err != nil {
			return nil, nil, err
		}
		ps := []*proc{s.p}
		return s, ps, waitUntil(ps, func() error {
			wc, err := dialWire(s.wireAddr)
			if err != nil {
				return err
			}
			defer wc.c.Close()
			m, err := wc.meta()
			if err != nil {
				return err
			}
			if m.DBHash != hash {
				return fmt.Errorf("server db hash %016x, benchmark built %016x", m.DBHash, hash)
			}
			return nil
		})
	})
	if err != nil {
		return out, err
	}
	client := &http.Client{Timeout: 10 * time.Second}

	conns := make([]*wireConn, wireConns)
	for c := range conns {
		if conns[c], err = dialWire(srv.wireAddr); err != nil {
			return out, err
		}
		defer conns[c].c.Close()
	}

	// Warm-up: wire-hot fills the LRU with the whole population and
	// verifies every answer; the verified payloads are then the expected
	// bytes of every timed answer. wire-cold warms each connection's
	// managers with two batches of its own (verified by sample later).
	var hotWant [][]byte
	if hot {
		var resp wire.DecideResponse
		for i, f := range hotFrames {
			payload, err := conns[0].roundTrip(f, &resp)
			if err != nil {
				return out, fmt.Errorf("warm-up: %w", err)
			}
			hotWant = append(hotWant, append([]byte(nil), payload...))
			for j, v := range pop[i*wireBatch : (i+1)*wireBatch] {
				if !ref.wireMatches(core.SchemeCoordDVFSCache, v, resp.Decided[j], resp.Settings[j*len(v):(j+1)*len(v)]) {
					chk.failf("wire-hot: answer %d differs from the library", i*wireBatch+j)
					out.failed++
				}
			}
			out.attempted++
		}
	}

	// The closed loop: each connection sends its next batch as soon as
	// the previous one is answered.
	sloMs := float64(coldLimitMs)
	if hot {
		sloMs = hotLimitMs
	}
	runWindow := func(d time.Duration, traced bool, first, limit int) (*window, []coldSample, error) {
		var (
			mu      sync.Mutex
			total   window
			samples []coldSample
			wg      sync.WaitGroup
			errOnce error
		)
		start := time.Now()
		deadline := start.Add(d)
		for c := range conns {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var (
					w    window
					resp wire.DecideResponse
					mine []coldSample
				)
				for k := first; time.Now().Before(deadline) && (limit == 0 || k < first+limit); k++ {
					var frame []byte
					scheme := core.SchemeCoordDVFSCache
					var vs []vec
					g := k*wireConns + c
					if hot {
						frame = hotFrames[(k+c)%len(hotFrames)]
					} else {
						scheme = cold.scheme(g)
						vs = cold.vectors(g)
						frame = wireFrame(nil, db, hash, uint32(g), scheme, vs)
					}
					w.attempted++
					t0 := time.Now()
					payload, err := conns[c].roundTrip(frame, &resp)
					t1 := time.Now()
					if traced {
						tr.record("live.wire_batch", 0, t0, t1)
					}
					if err != nil {
						w.failed++
						mu.Lock()
						if errOnce == nil {
							errOnce = err
						}
						mu.Unlock()
						return
					}
					ms := t1.Sub(t0).Seconds() * 1e3
					ok := len(resp.Decided) == wireBatch
					if hot {
						ok = ok && bytes.Equal(payload, hotWant[(k+c)%len(hotFrames)])
					} else if ok && g%coldVerifyEv == 0 {
						n := db.Sys.NumCores
						for m := 0; m < 8; m++ {
							j := m * (wireBatch / 8)
							mine = append(mine, coldSample{scheme, vs[j], resp.Decided[j],
								append([]wire.Setting(nil), resp.Settings[j*n:(j+1)*n]...)})
						}
					}
					if !ok {
						w.failed++
						continue
					}
					w.lat = append(w.lat, ms)
					w.at = append(w.at, t1.Sub(start).Seconds())
					w.answered += wireBatch
					if ms <= sloMs {
						w.withinSLO++
					}
				}
				mu.Lock()
				total.merge(&w)
				samples = append(samples, mine...)
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		total.elapsed = time.Since(start)
		return &total, samples, errOnce
	}

	first := 0
	if !hot {
		// Two untimed batches per connection warm the shard managers.
		w, s, err := runWindow(time.Hour, false, 0, 2)
		if err != nil {
			return out, err
		}
		out.attempted += w.attempted
		out.failed += w.failed
		verifyCold(chk, ref, &out, s)
		first = 2
	}

	metricsAddr := []string{srv.httpAddr}
	before, err := scrapeAll(client, metricsAddr)
	if err != nil {
		return out, err
	}
	cpu0, err := topoCPU(ps)
	if err != nil {
		return out, err
	}

	var w *window
	var samples []coldSample
	overhead := 0.0
	if cfg.trace {
		// Half untraced, half traced: the difference is the tracing
		// overhead on this workload.
		half := cfg.window() / 2
		plain, s1, err := runWindow(half, false, first, 0)
		if err != nil {
			return out, err
		}
		traced, s2, err := runWindow(half, true, first+1<<20, 0)
		if err != nil {
			return out, err
		}
		plainQPS := float64(plain.answered) / plain.elapsed.Seconds()
		overhead = (plainQPS - float64(traced.answered)/traced.elapsed.Seconds()) / plainQPS * 100
		plain.merge(traced)
		plain.elapsed += traced.elapsed
		w, samples = plain, append(s1, s2...)
	} else {
		w, samples, err = runWindow(cfg.window(), false, first, 0)
		if err != nil {
			return out, err
		}
	}
	cpu1, err := topoCPU(ps)
	if err != nil {
		return out, err
	}
	after, err := scrapeAll(client, metricsAddr)
	if err != nil {
		return out, err
	}
	if err := srv.p.mustBeAlive(); err != nil {
		return out, err
	}
	rss, err := topoRSS(ps)
	if err != nil {
		return out, err
	}
	verifyCold(chk, ref, &out, samples)

	hitRatio, rejectRatio, fanoutMs, served := serviceRatios(before, after)
	logf("%s: hit ratio %.4f, admission rejects/miss %.4f, fan-out mean %.3f ms", cfg.workload, hitRatio, rejectRatio, fanoutMs)
	if hot && hitRatio < 0.99 {
		chk.failf("wire-hot: hit ratio %.4f below its design band (>= 0.99)", hitRatio)
	}
	if !hot && hitRatio > 0.01 {
		chk.failf("wire-cold: hit ratio %.4f above its design band (<= 0.01)", hitRatio)
	}
	if cfg.trace {
		out.attempted += w.attempted
		out.failed += w.failed
		out.set("service.lru_hit_ratio", "fraction", hitRatio)
		out.set("service.admission_reject_ratio", "fraction", rejectRatio)
		out.set("service.fanout_mean_ms", "ms", fanoutMs)
		out.set("qosrmad.cpu_us_per_query", "us", (cpu1-cpu0)/served*1e6)
		out.set("trace.overhead_pct", "%", overhead)
		return out, nil
	}
	w.report(&out, setupS, rss, wireBatch)
	return out, nil
}

// medianSetup runs start reps times, keeping the last topology up, and
// returns it with the median set-up time in seconds.
func medianSetup[T any](reps int, start func() (T, []*proc, error)) (T, []*proc, float64, error) {
	var (
		times []float64
		top   T
		ps    []*proc
		err   error
	)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		top, ps, err = start()
		if err != nil {
			return top, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			for _, p := range ps {
				p.stop()
			}
		}
	}
	return top, ps, stats.Percentile(times, 50), nil
}

// coldSample is one wire-cold answer kept for the library comparison.
type coldSample struct {
	scheme  core.Scheme
	v       vec
	decided bool
	set     []wire.Setting
}

// verifyCold compares sampled wire-cold answers with the library.
func verifyCold(chk *checks, ref *reference, out *outcome, samples []coldSample) {
	for _, s := range samples {
		if !ref.wireMatches(s.scheme, s.v, s.decided, s.set) {
			chk.failf("wire-cold: sampled answer differs from the library (%v)", s.v)
			out.failed++
		}
	}
}

// jsonTopo is json-tier-open's topology: two single-replica backend
// groups behind one qosrmad -route tier.
type jsonTopo struct {
	backends []*server
	tier     *server
}

func (t *jsonTopo) addrs() []string {
	return []string{t.backends[0].httpAddr, t.backends[1].httpAddr, t.tier.httpAddr}
}

func startJSONTier(cfg config, client *http.Client, hash string) (*jsonTopo, []*proc, error) {
	t := &jsonTopo{}
	var ps []*proc
	for i := 0; i < 2; i++ {
		b, err := spawnServer(cfg, fmt.Sprintf("backend%d", i), false)
		if err != nil {
			return nil, ps, err
		}
		t.backends = append(t.backends, b)
		ps = append(ps, b.p)
	}
	addr, err := freePort()
	if err != nil {
		return nil, ps, err
	}
	spec := t.backends[0].httpAddr + ";" + t.backends[1].httpAddr
	p, err := spawn("tier", cfg.qosrmad, "-addr", addr, "-route", spec)
	if err != nil {
		return nil, ps, err
	}
	t.tier = &server{p: p, httpAddr: addr}
	ps = append(ps, p)
	err = waitUntil(ps, func() error {
		for _, a := range t.addrs() {
			var m struct {
				DBHash string `json:"db_hash"`
			}
			if err := getJSON(client, "http://"+a+"/v1/meta", &m); err != nil {
				return err
			}
			if m.DBHash != hash {
				return fmt.Errorf("%s serves db %s, benchmark built %s", a, m.DBHash, hash)
			}
		}
		resp, err := client.Get("http://" + addr + "/v1/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("tier healthz %d", resp.StatusCode)
		}
		return nil
	})
	return t, ps, err
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jsonStream is json-tier-open's deterministic arrival schedule and key
// draws.
type jsonStream struct {
	due   []float64 // arrival time in seconds from the start
	ranks []int32   // jsonBatch Zipf ranks per arrival
	sp    *space
	perm  permutation
}

func newJSONStream(sp *space, seed uint64, seconds float64, z *zipf) *jsonStream {
	s := &jsonStream{sp: sp, perm: sp.permutation(seed, "perfbench/json/vectors")}
	arr := stats.NewRNG(stats.SeedFrom(seed, "perfbench/json/arrivals"))
	keys := stats.NewRNG(stats.SeedFrom(seed, "perfbench/json/keys"))
	t := 0.0
	for {
		t += arr.Exp(float64(jsonBatch) / jsonRate)
		if t >= seconds {
			return s
		}
		s.due = append(s.due, t)
		for j := 0; j < jsonBatch; j++ {
			s.ranks = append(s.ranks, int32(z.draw(keys)))
		}
	}
}

func (s *jsonStream) vectors(k int) []vec {
	out := make([]vec, jsonBatch)
	for j := range out {
		out[j] = s.sp.vecAt(s.perm, uint64(s.ranks[k*jsonBatch+j]))
	}
	return out
}

// runJSONTier drives json-tier-open: open-loop Poisson batches over at
// most jsonConns connections to the tier, timed from their due times.
func runJSONTier(cfg config, db *simdb.DB, chk *checks, tr *tracer) (outcome, error) {
	var out outcome
	sp := newSpace(db)
	z := newZipf(jsonPop, jsonZipfS)
	seconds := jsonWarmup + cfg.seconds
	stream := newJSONStream(sp, cfg.seed, seconds, z)
	checkStream(chk, cfg.workload, cfg.seed, func(seed uint64) [][]byte {
		st := newJSONStream(sp, seed, 0.05, z)
		var bs [][]byte
		for k := range st.due {
			bs = append(bs, appendJSONBatch(nil, db, "rm2", st.vectors(k)), []byte(strconv.FormatFloat(st.due[k], 'g', -1, 64)))
		}
		return bs
	})

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     jsonConns,
			MaxIdleConnsPerHost: jsonConns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	ctl := &http.Client{Timeout: 10 * time.Second}

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	top, ps, setupS, err := medianSetup(reps, func() (*jsonTopo, []*proc, error) {
		return startJSONTier(cfg, ctl, db.Fingerprint())
	})
	if err != nil {
		return out, err
	}
	backendAddrs := []string{top.backends[0].httpAddr, top.backends[1].httpAddr}
	url := "http://" + top.tier.httpAddr + "/v1/decide"

	// late is how far behind schedule the generator itself was: from
	// the later of the due time and the previous hand-off to this one.
	// Waiting for a free connection is the system's queueing, not
	// lateness, and shows in the latency measured from the due time.
	type job struct {
		k    int
		due  time.Time
		late time.Duration
	}
	var (
		mu      sync.Mutex
		timed   window
		warm    window
		start   time.Time
		timedAt time.Time
		traceOn bool
		plain   window
		tracedW window
		splitAt time.Time
		before  []map[string]float64
		tierPre map[string]float64
		cpu0    float64
	)
	jobs := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < jsonConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			ref := newReference(db) // its scratch is per goroutine
			for jb := range jobs {
				vs := stream.vectors(jb.k)
				body = appendJSONBatch(body[:0], db, "rm2", vs)
				ok, resp := postDecide(client, url, body, jb.k%jsonVerifyEv == 0)
				done := time.Now()
				if ok && resp != nil {
					for m := 0; m < 4; m++ {
						j := m * (jsonBatch / 4)
						if !ref.jsonMatches(core.SchemeCoordDVFSCache, vs[j], resp.Results[j]) {
							chk.failf("json-tier-open: sampled answer differs from the library (%v)", vs[j])
							ok = false
						}
					}
				}
				ms := done.Sub(jb.due).Seconds() * 1e3
				mu.Lock()
				w := &warm
				if !jb.due.Before(timedAt) {
					w = &timed
					if traceOn {
						w = &plain
						if !jb.due.Before(splitAt) {
							w = &tracedW
							tr.record("live.json_batch", 0, jb.due, done)
						}
					}
				}
				w.attempted++
				w.late = append(w.late, jb.late.Seconds()*1e3)
				if !ok {
					w.failed++
				} else {
					w.lat = append(w.lat, ms)
					w.at = append(w.at, jb.due.Sub(timedAt).Seconds())
					w.answered += jsonBatch
					if ms <= jsonLimitMs {
						w.withinSLO++
					}
				}
				mu.Unlock()
			}
		}()
	}

	start = time.Now()
	timedAt = start.Add(time.Duration(jsonWarmup * float64(time.Second)))
	splitAt = timedAt.Add(cfg.window() / 2)
	traceOn = cfg.trace
	scraped := false
	freeAt := start
	for k, t := range stream.due {
		due := start.Add(time.Duration(t * float64(time.Second)))
		if !scraped && !due.Before(timedAt) {
			// Counters at the warm-up/timed boundary. Scraping happens on
			// the generator's clock, so its cost shows as lateness.
			if before, err = scrapeAll(ctl, backendAddrs); err == nil {
				tierPre, err = scrape(ctl, top.tier.httpAddr)
			}
			if err == nil {
				cpu0, err = topoCPU(ps)
			}
			if err != nil {
				close(jobs)
				wg.Wait()
				return out, err
			}
			scraped = true
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if freeAt.After(ready) {
			ready = freeAt
		}
		jobs <- job{k, due, time.Since(ready)}
		freeAt = time.Now()
	}
	close(jobs)
	wg.Wait()
	end := time.Now()
	cpu1, err := topoCPU(ps)
	if err != nil {
		return out, err
	}
	after, err := scrapeAll(ctl, backendAddrs)
	if err != nil {
		return out, err
	}
	tierPost, err := scrape(ctl, top.tier.httpAddr)
	if err != nil {
		return out, err
	}
	for _, p := range ps {
		if err := p.mustBeAlive(); err != nil {
			return out, err
		}
	}
	rss, err := topoRSS(ps)
	if err != nil {
		return out, err
	}
	out.attempted += warm.attempted
	out.failed += warm.failed

	hitRatio, rejectRatio, fanoutMs, served := serviceRatios(before, after)
	w := &timed
	if cfg.trace {
		plain.elapsed = splitAt.Sub(timedAt)
		tracedW.elapsed = end.Sub(splitAt)
		w = &plain
	}
	late := append(append([]float64(nil), timed.late...), plain.late...)
	late = append(late, tracedW.late...)
	lateP99 := stats.Percentile(late, 99)
	logf("json-tier-open: hit ratio %.4f, admission rejects/miss %.4f, fan-out mean %.3f ms, generator late p99 %.3f ms",
		hitRatio, rejectRatio, fanoutMs, lateP99)
	if hitRatio <= 0 || hitRatio >= 1 {
		chk.failf("json-tier-open: hit ratio %.4f outside its design band (strictly between 0 and 1)", hitRatio)
	}
	if lateP99 > lateLimitMs {
		chk.failf("json-tier-open: generator sent late (p99 %.3f ms > %d ms): run invalid", lateP99, lateLimitMs)
	}
	requests := tierPost["qosrmad_route_requests_total"] - tierPre["qosrmad_route_requests_total"]
	splits := tierPost["qosrmad_route_splits_total"] - tierPre["qosrmad_route_splits_total"]
	if cfg.trace {
		out.attempted += plain.attempted + tracedW.attempted
		out.failed += plain.failed + tracedW.failed
		out.set("service.lru_hit_ratio", "fraction", hitRatio)
		out.set("service.admission_reject_ratio", "fraction", rejectRatio)
		out.set("service.fanout_mean_ms", "ms", fanoutMs)
		out.set("qosrmad.cpu_us_per_query", "us", (cpu1-cpu0)/served*1e6)
		out.set("route.split_share", "fraction", splits/requests)
		out.set("route.retries", "count", tierPost["qosrmad_route_retries_total"]-tierPre["qosrmad_route_retries_total"])
		out.set("route.failures", "count", tierPost["qosrmad_route_exhausted_total"]-tierPre["qosrmad_route_exhausted_total"])
		// The rate is fixed, so tracing shows as added median latency.
		p50 := stats.Percentile(plain.lat, 50)
		out.set("trace.overhead_pct", "%", (stats.Percentile(tracedW.lat, 50)-p50)/p50*100)
		return out, nil
	}
	w.elapsed = end.Sub(timedAt)
	w.report(&out, setupS, rss, jsonBatch)
	return out, nil
}

// postDecide posts one batch. Every answer gets the structural check
// (status 200, one result per query); a verified batch is also decoded
// for the library comparison.
func postDecide(client *http.Client, url string, body []byte, decode bool) (bool, *service.DecideResponse) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, nil
	}
	if bytes.Count(data, []byte(`"decided"`)) != jsonBatch {
		return false, nil
	}
	if !decode {
		return true, nil
	}
	var dr service.DecideResponse
	if err := json.Unmarshal(data, &dr); err != nil || len(dr.Results) != jsonBatch {
		return false, nil
	}
	return true, &dr
}
