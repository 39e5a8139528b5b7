package route

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qosrma/internal/ops"
	"qosrma/internal/wire"
)

// WireProxy extends the routing tier to the binary wire protocol: it
// accepts wire connections, splits each DecideRequest micro-batch by the
// same consistent-hash placement the JSON proxy uses (the canonical
// routing key is rendered from the latest Meta frame's interned
// benchmark table, so both codecs agree on ownership), forwards the
// sub-batches one group after another over pooled backend wire
// connections, and merges the answers into one response echoing the
// client's sequence number.
//
// It forwards on its own lane of the proxy's forwarding core: breakers
// separate from the HTTP ones (the wire listener can die alone), the
// shared health prober, and the same attempt loop, hedge and ring spill
// as the JSON path. A backend's drain goaway (Error frame, code
// Unavailable) is a failure that still carries an answer, so draining
// backends hand their in-flight keys to siblings without client-visible
// errors. Every Hello fetches a fresh Meta through the lane and
// republishes the routing table, so a client re-syncing after a backend
// hot-swap gets the new database's hash. Close cancels the proxy's
// lifetime context, which cuts short both backoff sleeps and in-flight
// backend I/O.
type WireProxy struct {
	p    *Proxy
	ln   net.Listener
	lane *lane

	ctx    context.Context // lifetime of every forward; cancelled by Close
	cancel context.CancelFunc

	pools []*wirePool               // parallel to p.replicas; nil = no wire listener
	table atomic.Pointer[wireTable] // latest Meta; nil until a backend answers Hello
	dials *ops.Counter

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// wireTable is one backend's Meta answer: the complete frame relayed to
// clients on Hello, and the interned bench names routing keys render.
type wireTable struct {
	frame   []byte
	benches map[uint16]string
}

// wirePool is one replica's idle wire-connection pool.
type wirePool struct {
	addr string
	mu   sync.Mutex
	idle []*wireConn
}

// defaultWireTimeout floors the wire lane's per-attempt deadline and
// every client-connection write deadline when the operator disabled the
// per-attempt timeout: raw conn I/O must never be unbounded.
const defaultWireTimeout = 2 * time.Second

// wireConn is one pooled backend connection with its framing reader.
type wireConn struct {
	c net.Conn
	r *wire.Reader
}

// ServeWire starts proxying the binary wire protocol on ln. Call once;
// the returned WireProxy is also closed by Proxy.Close.
func (p *Proxy) ServeWire(ln net.Listener) *WireProxy {
	timeout := p.opt.attemptTimeout()
	if timeout <= 0 {
		timeout = defaultWireTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	wp := &WireProxy{
		p:      p,
		ln:     ln,
		lane:   newLane(p, "wire", timeout, func(rep *replica) bool { return rep.wireAddr != "" }),
		ctx:    ctx,
		cancel: cancel,
		pools:  make([]*wirePool, len(p.replicas)),
		dials: p.reg.Counter("qosrmad_route_wire_dials_total",
			"Backend wire connections dialed (reconnects included).", ""),
		conns: make(map[net.Conn]struct{}),
	}
	for ri, rep := range p.replicas {
		if rep.wireAddr != "" {
			wp.pools[ri] = &wirePool{addr: rep.wireAddr}
		}
	}
	p.wire = wp
	wp.wg.Add(1)
	go wp.serve()
	return wp
}

// Addr is the wire listener's address.
func (wp *WireProxy) Addr() string { return wp.ln.Addr().String() }

// Stats reports wire decide requests handled, splits and exhausted
// forwards.
func (wp *WireProxy) Stats() (requests, splits, failures uint64) {
	return wp.lane.stats()
}

// Close cancels every forward (backoff and backend I/O alike), stops
// accepting, closes client connections and then the pools.
func (wp *WireProxy) Close() {
	wp.cancel()
	wp.ln.Close()
	wp.mu.Lock()
	for c := range wp.conns {
		c.Close()
	}
	wp.conns = nil // a connection accepted from here on is refused by track
	wp.mu.Unlock()
	wp.wg.Wait()
	for _, pool := range wp.pools {
		if pool != nil {
			pool.drop()
		}
	}
}

func (wp *WireProxy) track(c net.Conn) bool {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.conns == nil {
		return false
	}
	wp.conns[c] = struct{}{}
	return true
}

func (wp *WireProxy) untrack(c net.Conn) {
	wp.mu.Lock()
	delete(wp.conns, c)
	wp.mu.Unlock()
}

func (wp *WireProxy) serve() {
	defer wp.wg.Done()
	for {
		c, err := wp.ln.Accept()
		if err != nil {
			return
		}
		if !wp.track(c) {
			c.Close()
			continue
		}
		wp.wg.Add(1)
		go wp.serveConn(c)
	}
}

// serveConn is one client connection's frame loop.
func (wp *WireProxy) serveConn(c net.Conn) {
	defer wp.wg.Done()
	defer wp.untrack(c)
	defer c.Close()
	r := wire.NewReader(c)
	var (
		req   wire.DecideRequest
		out   []byte
		merge mergeState
	)
	for {
		typ, payload, err := r.Next()
		// Bound every write this iteration makes: a client that stops
		// reading its responses must not wedge the proxy goroutine.
		// (Reads stay unbounded — an idle connection is legal, a
		// stalled write is not.)
		c.SetWriteDeadline(time.Now().Add(wp.lane.timeout)) //nolint:errcheck // net.TCPConn deadlines cannot fail
		if err != nil {
			if errors.Is(err, wire.ErrVersion) || errors.Is(err, wire.ErrTooLarge) {
				code := wire.ErrCodeUnsupported
				if errors.Is(err, wire.ErrTooLarge) {
					code = wire.ErrCodeTooLarge
				}
				c.Write(wire.AppendError(out[:0], 0, code, err.Error())) //nolint:errcheck // closing anyway
			}
			return
		}
		switch typ {
		case wire.TypeHello:
			if t, err := wp.fetchMeta(); err != nil {
				out = wire.AppendError(out[:0], 0, wire.ErrCodeUnavailable,
					"no backend answered Hello: "+err.Error())
			} else {
				out = append(out[:0], t.frame...)
			}
		case wire.TypeDecideRequest:
			wp.lane.requests.Inc()
			if err := wire.ParseDecideRequest(payload, &req); err != nil {
				out = wire.AppendError(out[:0], req.Seq, wire.ErrCodeMalformed, err.Error())
			} else {
				out = wp.handleDecide(out[:0], payload, &req, &merge)
			}
		default:
			out = wire.AppendError(out[:0], 0, wire.ErrCodeUnsupported,
				fmt.Sprintf("unexpected frame type %#x", typ))
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// mergeState is per-connection scratch for split decide merging.
type mergeState struct {
	key      []byte
	groups   [][]int
	sub      wire.DecideRequest
	subFrame []byte
	respBuf  []byte
	resp     wire.DecideResponse
	decided  []bool
	settings []wire.Setting
}

// handleDecide routes one parsed decide request and appends the complete
// response frame (DecideResponse or Error) to dst. payload is the raw
// request payload, reused verbatim for the single-group fast path.
func (wp *WireProxy) handleDecide(dst []byte, payload []byte, req *wire.DecideRequest, m *mergeState) []byte {
	count := req.Count()
	n := int(req.NCores)

	// Benchmark names for the canonical routing key come from Meta; if no
	// backend has answered one yet the interned IDs stand in (placement
	// is still deterministic, just not aligned with the JSON path's).
	t := wp.table.Load()
	if t == nil {
		if t, _ = wp.fetchMeta(); t == nil {
			t = &wireTable{}
		}
	}
	if len(m.groups) != len(wp.lane.groups) {
		m.groups = make([][]int, len(wp.lane.groups))
	}
	for g := range m.groups {
		m.groups[g] = m.groups[g][:0]
	}
	distinct, split := wp.lane.split(m.groups, count, func(qi int) []byte {
		m.key = appendWireKey(m.key[:0], req, qi, t)
		return m.key
	})

	if !split {
		// One owning group: forward the original frame bytes untouched.
		m.subFrame = wire.AppendHeader(m.subFrame[:0], wire.TypeDecideRequest, len(payload))
		m.subFrame = append(m.subFrame, payload...)
		ans, err := wp.forwardDecide(distinct, m)
		if err != nil {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeUnavailable, err.Error())
		}
		return relay(dst, req.Seq, ans.typ, ans.payload)
	}

	if cap(m.decided) < count {
		m.decided = make([]bool, count)
	}
	m.decided = m.decided[:count]
	if cap(m.settings) < count*n {
		m.settings = make([]wire.Setting, count*n)
	}
	m.settings = m.settings[:count*n]

	for g, idx := range m.groups {
		if len(idx) == 0 {
			continue
		}
		m.sub = wire.DecideRequest{
			Seq:    req.Seq,
			DBHash: req.DBHash,
			Scheme: req.Scheme,
			Model:  req.Model,
			Flags:  req.Flags,
			NCores: req.NCores,
			Slack:  req.Slack,
			Slacks: append(m.sub.Slacks[:0], req.Slacks...),
			Apps:   m.sub.Apps[:0],
		}
		for _, qi := range idx {
			m.sub.Apps = append(m.sub.Apps, req.Apps[qi*n:(qi+1)*n]...)
		}
		m.subFrame = wire.AppendDecideRequest(m.subFrame[:0], &m.sub)
		ans, err := wp.forwardDecide(g, m)
		if err != nil {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeUnavailable,
				fmt.Sprintf("backend group %s: %v", wp.p.ring.Backends()[g].Name, err))
		}
		if ans.typ != wire.TypeDecideResponse {
			// Propagate the backend's own error (stale DB, malformed,
			// a final drain goaway).
			return relay(dst, req.Seq, ans.typ, ans.payload)
		}
		if err := wire.ParseDecideResponse(ans.payload, &m.resp); err != nil {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeMalformed,
				"backend response: "+err.Error())
		}
		if len(m.resp.Decided) != len(idx) || int(m.resp.NCores) != n {
			return wire.AppendError(dst, req.Seq, wire.ErrCodeMalformed,
				fmt.Sprintf("backend group %s answered %d results for %d queries",
					wp.p.ring.Backends()[g].Name, len(m.resp.Decided), len(idx)))
		}
		for j, qi := range idx {
			m.decided[qi] = m.resp.Decided[j]
			copy(m.settings[qi*n:(qi+1)*n], m.resp.Settings[j*n:(j+1)*n])
		}
	}
	return wire.AppendDecideResponse(dst, &wire.DecideResponse{
		Seq:      req.Seq,
		NCores:   req.NCores,
		Decided:  m.decided,
		Settings: m.settings,
	})
}

// relay appends a backend answer for the client: a DecideResponse
// verbatim, an Error frame re-stamped with the client's sequence number
// (a drain goaway carries seq 0).
func relay(dst []byte, seq uint32, typ byte, payload []byte) []byte {
	switch typ {
	case wire.TypeDecideResponse:
		dst = wire.AppendHeader(dst, typ, len(payload))
		return append(dst, payload...)
	case wire.TypeError:
		if _, code, msg, err := wire.ParseError(payload); err == nil {
			return wire.AppendError(dst, seq, code, msg)
		}
	}
	return wire.AppendError(dst, seq, wire.ErrCodeMalformed,
		fmt.Sprintf("backend answered unexpected frame type %#x", typ))
}

// wireAnswer is one backend frame: its type and a private copy of its
// payload.
type wireAnswer struct {
	typ     byte
	payload []byte
}

// forwardDecide forwards m.subFrame to group g under the lane's hedge.
// The first forward appends its answer to m.respBuf; a hedged one races
// it concurrently, so it gets a buffer of its own, and the winner's
// buffer becomes m.respBuf.
func (wp *WireProxy) forwardDecide(g int, m *mergeState) (wireAnswer, error) {
	ans, err := hedge(wp.ctx, wp.lane, func(ctx context.Context, hedged bool) (wireAnswer, error) {
		var buf []byte
		if !hedged {
			buf = m.respBuf
		}
		return wp.forward(ctx, g, m.subFrame, buf)
	})
	if err == nil {
		m.respBuf = ans.payload
	}
	return ans, err
}

// forward runs one request frame against group g (g < 0 = any group)
// through the wire lane's attempt loop, appending the answer payload to
// buf[:0]. Decide and Hello frames are idempotent.
func (wp *WireProxy) forward(ctx context.Context, g int, frame, buf []byte) (wireAnswer, error) {
	return forward(ctx, wp.lane, g, 1+wp.p.opt.retries(), func(ctx context.Context, ri int) (wireAnswer, bool, error) {
		typ, payload, err := wp.pools[ri].roundTrip(ctx, wp.dials, frame, buf[:0])
		if err != nil {
			return wireAnswer{}, false, err
		}
		goaway := false
		if typ == wire.TypeError {
			_, code, _, perr := wire.ParseError(payload)
			goaway = perr == nil && code == wire.ErrCodeUnavailable
		}
		return wireAnswer{typ: typ, payload: payload}, goaway, nil
	})
}

// fetchMeta forwards a Hello through the wire lane and publishes the
// answer as the routing table.
func (wp *WireProxy) fetchMeta() (*wireTable, error) {
	ans, err := wp.forward(wp.ctx, -1, wire.AppendHello(nil), nil)
	if err != nil {
		return nil, err
	}
	if ans.typ != wire.TypeMeta {
		return nil, fmt.Errorf("backend answered frame type %#x to Hello", ans.typ)
	}
	var meta wire.Meta
	if err := wire.ParseMeta(ans.payload, &meta); err != nil {
		return nil, err
	}
	t := &wireTable{
		frame:   append(wire.AppendHeader(nil, wire.TypeMeta, len(ans.payload)), ans.payload...),
		benches: make(map[uint16]string, len(meta.Benches)),
	}
	for _, b := range meta.Benches {
		t.benches[b.ID] = b.Name
	}
	wp.table.Store(t)
	return t, nil
}

// wireSchemeNames maps interned scheme IDs to the canonical lowercased
// names the JSON path routes by, keeping both codecs' placement aligned.
var wireSchemeNames = [...]string{"static", "dvfs", "rm1", "rm2", "rm3", "ucp"}

// appendWireKey renders query qi of req in the same canonical form as
// RoutingKey renders a JSON query, so a key decided over HTTP and the
// same key decided over the wire land on the same backend LRU. Bench
// names come from t; an ID it does not list renders as "#id".
func appendWireKey(dst []byte, req *wire.DecideRequest, qi int, t *wireTable) []byte {
	var scheme string
	if int(req.Scheme) < len(wireSchemeNames) {
		scheme = wireSchemeNames[req.Scheme]
	} else {
		scheme = strconv.Itoa(int(req.Scheme))
	}
	var slacks []float64
	var slack float64
	switch {
	case req.Flags&wire.FlagSlackPerCore != 0:
		slacks = req.Slacks
	case req.Flags&wire.FlagSlackUniform != 0:
		slack = req.Slack
	}
	dst = appendKeyHead(dst, scheme, int(req.Model), slacks, slack)
	n := int(req.NCores)
	for _, a := range req.Apps[qi*n : (qi+1)*n] {
		dst = append(dst, '|')
		if name, ok := t.benches[a.Bench]; ok {
			dst = append(dst, name...)
		} else {
			dst = append(dst, '#')
			dst = strconv.AppendInt(dst, int64(a.Bench), 10)
		}
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(a.Phase), 10)
	}
	return dst
}

// get pops an idle connection or dials a fresh one.
func (pool *wirePool) get(ctx context.Context, dials *ops.Counter) (*wireConn, error) {
	pool.mu.Lock()
	if n := len(pool.idle); n > 0 {
		wc := pool.idle[n-1]
		pool.idle = pool.idle[:n-1]
		pool.mu.Unlock()
		return wc, nil
	}
	pool.mu.Unlock()
	var d net.Dialer
	//qosrma:allow(ctxdeadline) ctx is a wire-lane attempt context: forward gives every one the lane's per-attempt deadline, which ServeWire floors at defaultWireTimeout
	c, err := d.DialContext(ctx, "tcp", pool.addr)
	if err != nil {
		return nil, err
	}
	dials.Inc()
	return &wireConn{c: c, r: wire.NewReader(c)}, nil
}

// put returns a healthy connection to the pool.
func (pool *wirePool) put(wc *wireConn) {
	pool.mu.Lock()
	pool.idle = append(pool.idle, wc)
	pool.mu.Unlock()
}

// drop closes every idle connection.
func (pool *wirePool) drop() {
	pool.mu.Lock()
	idle := pool.idle
	pool.idle = nil
	pool.mu.Unlock()
	for _, wc := range idle {
		wc.c.Close()
	}
}

// roundTrip writes one request frame and reads one response frame under
// ctx's deadline, appending the payload to buf (copied out of the
// connection's read buffer). ctx ending mid-exchange cuts the
// connection's deadline, so a cancelled attempt returns at once. Any
// error closes the connection instead of pooling it — the next attempt
// reconnects.
func (pool *wirePool) roundTrip(ctx context.Context, dials *ops.Counter, frame, buf []byte) (byte, []byte, error) {
	wc, err := pool.get(ctx, dials)
	if err != nil {
		return 0, nil, fmt.Errorf("replica %s: %w", pool.addr, err)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(defaultWireTimeout)
	}
	wc.c.SetDeadline(deadline) //nolint:errcheck // net.TCPConn deadlines cannot fail
	stop := context.AfterFunc(ctx, func() {
		wc.c.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // net.TCPConn deadlines cannot fail
	})
	var typ byte
	var payload []byte
	_, err = wc.c.Write(frame)
	if err == nil {
		typ, payload, err = wc.r.Next()
	}
	if err != nil {
		stop()
		wc.c.Close()
		return 0, nil, fmt.Errorf("replica %s: %w", pool.addr, err)
	}
	buf = append(buf, payload...)
	if stop() {
		wc.c.SetDeadline(time.Time{}) //nolint:errcheck // net.TCPConn deadlines cannot fail
		pool.put(wc)
	} else {
		// ctx ended meanwhile: its deadline cut could land on the next
		// user of a pooled connection.
		wc.c.Close()
	}
	return typ, buf, nil
}
