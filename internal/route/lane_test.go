package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/resilience"
	"qosrma/internal/service"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
	"qosrma/internal/wire"
)

// metricValue reads one series (name plus rendered labels) from the
// proxy's registry.
func metricValue(t *testing.T, p *Proxy, series string) float64 {
	t.Helper()
	var buf bytes.Buffer
	p.Registry().WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			var f float64
			if _, err := fmt.Sscan(v, &f); err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not exposed:\n%s", series, buf.String())
	return 0
}

// serveWireTier starts the wire proxy on a fresh loopback listener and
// dials one client connection to it.
func serveWireTier(t *testing.T, p *Proxy) (*WireProxy, net.Conn, *wire.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wp := p.ServeWire(ln)
	c, err := net.DialTimeout("tcp", wp.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return wp, c, wire.NewReader(c)
}

// TestWireProxyCloseDuringBackoff: Close cancels a forward parked in a
// long backoff instead of waiting the sleep out.
func TestWireProxyCloseDuringBackoff(t *testing.T) {
	refused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := refused.Addr().String()
	refused.Close() // the address now refuses connections

	const attemptTimeout = 200 * time.Millisecond
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{dead}, WireAddrs: []string{dead}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{
		AttemptTimeout: attemptTimeout,
		Retries:        2,
		Backoff:        resilience.Backoff{Base: 5 * time.Second, Max: 5 * time.Second},
	})
	_, c, _ := serveWireTier(t, p)
	if _, err := c.Write(wire.AppendDecideRequest(nil, wireTestRequest(4))); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the forward is now sleeping off its first failure

	start := time.Now()
	p.Close()
	if took := time.Since(start); took > 2*attemptTimeout {
		t.Fatalf("Close took %v during a 5s backoff, want about one attempt timeout (%v)", took, attemptTimeout)
	}
}

// TestWireProxyMetaFollowsSwap: after a backend hot-swaps its database,
// a client's fresh Hello through the tier returns the new database's
// Meta (not a cached copy of the old one), so a client refused with
// ErrCodeStaleDB can re-sync through the tier and decide again.
func TestWireProxyMetaFollowsSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("needs two real database builds")
	}
	srv := service.New(chaosTestDB(t), nil, service.Options{Shards: 2})
	t.Cleanup(srv.Close)
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(bln) //nolint:errcheck // exits nil on Close
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{"127.0.0.1:1"},
		WireAddrs: []string{bln.Addr().String()}}}, 0)
	p := NewProxy(ring, nil)
	defer p.Close()
	_, c, r := serveWireTier(t, p)

	hello := func(c net.Conn, r *wire.Reader) wire.Meta {
		t.Helper()
		if _, err := c.Write(wire.AppendHello(nil)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := r.Next()
		if err != nil || typ != wire.TypeMeta {
			t.Fatalf("Hello answered type %#x err %v, want Meta", typ, err)
		}
		var m wire.Meta
		if err := wire.ParseMeta(payload, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	decide := func(m *wire.Meta) (byte, []byte) {
		t.Helper()
		req := &wire.DecideRequest{Seq: 9, DBHash: m.DBHash, Scheme: 3, Model: 2,
			Flags: wire.FlagSlackUniform, NCores: m.NCores, Slack: 0.1}
		for i := 0; i < int(m.NCores); i++ {
			req.Apps = append(req.Apps, wire.App{Bench: m.Benches[i%len(m.Benches)].ID})
		}
		if _, err := c.Write(wire.AppendDecideRequest(nil, req)); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		return typ, payload
	}

	old := hello(c, r)
	if typ, _ := decide(&old); typ != wire.TypeDecideResponse {
		t.Fatalf("decide before swap answered type %#x", typ)
	}

	db2, err := simdb.Build(arch.DefaultSystemConfig(4), trace.Suite()[:4], simdb.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv.Swap(db2, "swap-test")
	bc, err := net.DialTimeout("tcp", bln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	direct := hello(bc, wire.NewReader(bc))
	if direct.DBHash == old.DBHash {
		t.Fatal("the swap did not change the backend's database hash")
	}

	// The old pin is refused by the backend and the refusal relayed.
	typ, payload := decide(&old)
	if typ != wire.TypeError {
		t.Fatalf("stale-pinned decide answered type %#x, want Error", typ)
	}
	if seq, code, _, _ := wire.ParseError(payload); code != wire.ErrCodeStaleDB || seq != 9 {
		t.Fatalf("stale-pinned decide answered code %d seq %d, want ErrCodeStaleDB seq 9", code, seq)
	}
	// Re-sync through the tier and decide on the new database.
	fresh := hello(c, r)
	if fresh.DBHash != direct.DBHash {
		t.Fatalf("tier relayed Meta hash %016x after the swap, backend serves %016x", fresh.DBHash, direct.DBHash)
	}
	if typ, _ := decide(&fresh); typ != wire.TypeDecideResponse {
		t.Fatalf("decide after re-sync answered type %#x", typ)
	}
}

// TestWireBreakerRecoversOwnership: a group whose only wire replica
// tripped its breaker (drain goaways) spills its keys while the breaker
// cools down, and owns them again once the cooldown has passed and the
// replica has healed — availability must not strand an open breaker
// that nothing would ever offer an attempt.
func TestWireBreakerRecoversOwnership(t *testing.T) {
	f0 := startWireFake(t, 10)
	f1 := startWireFake(t, 20)
	f1.down.Store(true)
	ring, _ := New([]Backend{
		{Name: "g0", Addrs: []string{"10.255.0.1:1"}, WireAddrs: []string{f0.addr}},
		{Name: "g1", Addrs: []string{"10.255.0.2:1"}, WireAddrs: []string{f1.addr}},
	}, 0)
	const cooldown = 50 * time.Millisecond
	p := NewProxyWithOptions(ring, nil, Options{
		Breaker: resilience.BreakerOptions{Threshold: 1, Cooldown: cooldown},
	})
	defer p.Close()
	wp, c, r := serveWireTier(t, p)

	req := wireTestRequest(64)
	for i, s := range wireDecide(t, c, r, req).Settings {
		if s.Size != 10 {
			t.Fatalf("setting %d answered by %d while g1 drains, want 10", i, s.Size)
		}
	}
	if st := wp.lane.breakers[1].State(); st != resilience.BreakerOpen {
		t.Fatalf("g1's wire breaker is %v after a goaway, want open", st)
	}

	f1.down.Store(false)
	time.Sleep(cooldown + 20*time.Millisecond)
	resp := wireDecide(t, c, r, req)
	table := wp.table.Load()
	n, owned := int(req.NCores), 0
	for qi := 0; qi < req.Count(); qi++ {
		want := uint8(10)
		if ring.Pick(appendWireKey(nil, req, qi, table)) == 1 {
			want = 20
			owned++
		}
		if got := resp.Settings[qi*n].Size; got != want {
			t.Fatalf("query %d answered by %d after g1 healed, want its owner %d", qi, got, want)
		}
	}
	if owned == 0 {
		t.Fatal("g1 owns none of the test keys — the test exercises nothing")
	}
}

// TestProxyHedgesSlowReplica: with HedgeAfter set, a decide stuck on a
// stalled replica is raced by a hedge on its sibling; every answer
// arrives well under the stall, from the fast replica.
func TestProxyHedgesSlowReplica(t *testing.T) {
	var seen sync.Map
	fast := fakeBackend(t, "fast", &seen)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body first: only then does the server watch the
		// connection, so the tier cancelling its losing forward ends
		// the stall instead of leaving it to run out.
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"result":{"decided":true,"settings":[{"size":"slow"}]}}`)
	}))
	t.Cleanup(slow.Close)
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{backendAddr(slow), backendAddr(fast)}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{HedgeAfter: 20 * time.Millisecond})
	defer p.Close()
	proxy := httptest.NewServer(p)
	t.Cleanup(proxy.Close)

	for i, q := range proxyQueries(6) {
		body, _ := json.Marshal(service.DecideRequest{DecideQuery: q})
		start := time.Now()
		resp, err := http.Post(proxy.URL+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if took := time.Since(start); took > time.Second {
			t.Fatalf("request %d took %v against a 2s stall with hedging on", i, took)
		}
		var out service.DecideResponse
		if err := json.Unmarshal(payload, &out); err != nil || out.Result == nil {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, payload)
		}
		if got := out.Result.Settings[0].Size; got != "fast" {
			t.Fatalf("request %d answered by %q, want fast", i, got)
		}
	}
	if h := metricValue(t, p, `qosrmad_route_hedges_total{proto="json"}`); h == 0 {
		t.Fatal("no JSON hedge launched against a stalled replica")
	}
	if e := metricValue(t, p, `qosrmad_route_exhausted_total{proto="json"}`); e != 0 {
		t.Fatalf("%v lost hedges counted as exhausted forwards", e)
	}
}

// TestWireProxyHedgesSlowReplica is the hedge on the binary codec. The
// racing forwards run concurrently, so under -race this also proves
// they never share a response buffer; the merge check proves the
// winner's bytes are the ones relayed.
func TestWireProxyHedgesSlowReplica(t *testing.T) {
	fast := startWireFake(t, 10)
	slow := startWireFake(t, 20)
	slow.stall.Store(int64(2 * time.Second))
	ring, _ := New([]Backend{{Name: "g0", Addrs: []string{"10.255.0.1:1", "10.255.0.2:1"},
		WireAddrs: []string{slow.addr, fast.addr}}}, 0)
	p := NewProxyWithOptions(ring, nil, Options{HedgeAfter: 20 * time.Millisecond})
	defer p.Close()
	_, c, r := serveWireTier(t, p)

	for i := 0; i < 6; i++ {
		req := wireTestRequest(8)
		req.Seq = uint32(200 + i)
		start := time.Now()
		resp := wireDecide(t, c, r, req)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("request %d took %v against a 2s stall with hedging on", i, took)
		}
		if resp.Seq != req.Seq || len(resp.Decided) != req.Count() {
			t.Fatalf("request %d: seq %d count %d", i, resp.Seq, len(resp.Decided))
		}
		n := int(req.NCores)
		for qi := 0; qi < req.Count(); qi++ {
			for ci := 0; ci < n; ci++ {
				a, s := req.Apps[qi*n+ci], resp.Settings[qi*n+ci]
				if s.Size != 10 || s.Freq != uint8(a.Bench) || s.Ways != uint8(a.Phase) {
					t.Fatalf("request %d query %d core %d: setting %+v for app %+v, want fast replica 10", i, qi, ci, s, a)
				}
			}
		}
	}
	if h := metricValue(t, p, `qosrmad_route_hedges_total{proto="wire"}`); h == 0 {
		t.Fatal("no wire hedge launched against a stalled replica")
	}
	if e := metricValue(t, p, `qosrmad_route_exhausted_total{proto="wire"}`); e != 0 {
		t.Fatalf("%v lost hedges counted as exhausted forwards", e)
	}
}
