package route

import (
	"context"
	"sync/atomic"
	"time"

	"qosrma/internal/ops"
	"qosrma/internal/resilience"
)

// lane is one codec's forwarding state over the proxy's replica set: a
// circuit breaker for every replica with a listener for that codec, the
// per-group and any-group rotation counters, and the codec's counters.
// The JSON and wire lanes never share breakers (a wire listener can die
// while its process still answers HTTP); they share the prober's health
// verdicts, the ring and the spill counter. Both codecs forward through
// the one attempt loop (forward) and the one hedge (hedge) below,
// supplying only a one-attempt function.
type lane struct {
	p        *Proxy
	timeout  time.Duration         // per-attempt deadline (0 = none)
	breakers []*resilience.Breaker // parallel to p.replicas; nil = no listener
	groups   [][]int               // group → member replica indices
	all      []int                 // every member replica
	rr       []atomic.Uint32       // per-group rotation
	ar       atomic.Uint32         // any-group rotation

	requests, splits, exhausted, retries, failures, hedges *ops.Counter
}

// newLane builds the proto lane over the replicas member accepts and
// registers its metric series.
func newLane(p *Proxy, proto string, timeout time.Duration, member func(*replica) bool) *lane {
	l := &lane{
		p:        p,
		timeout:  timeout,
		breakers: make([]*resilience.Breaker, len(p.replicas)),
		groups:   make([][]int, len(p.ring.Backends())),
		rr:       make([]atomic.Uint32, len(p.ring.Backends())),
	}
	bopt := p.opt.Breaker
	prev := bopt.OnStateChange
	bopt.OnStateChange = func(from, to resilience.BreakerState) {
		p.breakTo[to].Inc()
		if prev != nil {
			prev(from, to)
		}
	}
	labels := ops.Labels("proto", proto)
	l.requests = p.reg.Counter("qosrmad_route_requests_total",
		"Decide requests handled by the routing tier.", labels)
	l.splits = p.reg.Counter("qosrmad_route_splits_total",
		"Decide requests that spanned more than one backend group.", labels)
	l.exhausted = p.reg.Counter("qosrmad_route_exhausted_total",
		"Forwards that exhausted every attempt and answered an error.", labels)
	l.retries = p.reg.Counter("qosrmad_route_retries_total",
		"Forward attempts retried after a failure.", labels)
	l.failures = p.reg.Counter("qosrmad_route_attempt_failures_total",
		"Individual forward attempts that failed (transport error, truncated body, 5xx, drain goaway).", labels)
	l.hedges = p.reg.Counter("qosrmad_route_hedges_total",
		"Hedged decide forwards launched.", labels)
	for ri := range p.replicas {
		rep := &p.replicas[ri]
		if !member(rep) {
			continue
		}
		l.breakers[ri] = resilience.NewBreaker(bopt)
		l.groups[rep.group] = append(l.groups[rep.group], ri)
		l.all = append(l.all, ri)
		p.reg.GaugeFunc("qosrmad_route_replica_available",
			"1 when the replica is in rotation (probe-healthy, breaker not open inside its cooldown).",
			ops.Labels("group", p.ring.Backends()[rep.group].Name, "replica", rep.addr, "proto", proto),
			func() float64 {
				if l.available(ri) {
					return 1
				}
				return 0
			})
	}
	return l
}

// stats reports decide requests handled, how many spanned multiple
// groups, and how many forwards exhausted every attempt.
func (l *lane) stats() (requests, splits, failures uint64) {
	return l.requests.Value(), l.splits.Value(), l.exhausted.Value()
}

// available reports whether replica ri is in this lane's rotation:
// probe-healthy and its breaker not open inside its cooldown.
func (l *lane) available(ri int) bool {
	return l.p.replicaHealthy(ri) && l.breakers[ri].Available()
}

// groupAvailable reports whether any member replica of group g is in
// rotation.
func (l *lane) groupAvailable(g int) bool {
	for _, ri := range l.groups[g] {
		if l.available(ri) {
			return true
		}
	}
	return false
}

// owners returns the health-aware owner function for one request:
// availability is snapshotted once so every query in the batch sees a
// consistent fleet view. In the healthy fleet it is exactly Ring.Pick.
func (l *lane) owners() func(key []byte) int {
	ng := len(l.groups)
	if ng == 1 {
		return func([]byte) int { return 0 }
	}
	avail := make([]bool, ng)
	allUp := true
	for g := range avail {
		avail[g] = l.groupAvailable(g)
		allUp = allUp && avail[g]
	}
	if allUp {
		return l.p.ring.Pick
	}
	return func(key []byte) int {
		h := Hash(key)
		g := l.p.ring.PickAvailableHash(h, func(g int) bool { return avail[g] })
		if g != l.p.ring.PickHash(h) {
			l.p.spills.Inc()
		}
		return g
	}
}

// split assigns each of n queries to its owning group by the routing key
// key(i), appending query indices to groups[g] (passed in empty). It
// returns the single owning group, or split=true when the batch spans
// several groups (counted as a split).
func (l *lane) split(groups [][]int, n int, key func(i int) []byte) (owner int, split bool) {
	pick := l.owners()
	owner = -1
	for i := 0; i < n; i++ {
		g := pick(key(i))
		groups[g] = append(groups[g], i)
		if owner == -1 {
			owner = g
		} else if g != owner {
			split = true
		}
	}
	if split {
		l.splits.Inc()
	}
	return owner, split
}

// pick returns the next admitted member replica of group g (rotating),
// skipping index skip (the previous attempt's choice), or -1 when the
// group has none. g < 0 means any group. A non-negative return has
// reserved breaker admission and must be followed by exactly one
// attempt (the breaker's half-open probe accounting depends on it).
func (l *lane) pick(g, skip int) int {
	idxs, ctr := l.all, &l.ar
	if g >= 0 {
		idxs, ctr = l.groups[g], &l.rr[g]
	}
	if len(idxs) == 0 {
		return -1
	}
	start := int(ctr.Add(1))
	for k := range idxs {
		ri := idxs[(start+k)%len(idxs)]
		if ri != skip && l.p.replicaHealthy(ri) && l.breakers[ri].Allow() {
			return ri
		}
	}
	return -1
}

// attemptFunc runs one attempt against replica ri under ctx, which
// carries the lane's per-attempt deadline. err reports a failure with no
// answer (transport error, truncated response); failed reports an answer
// that is itself a failure (a JSON 5xx, a wire drain goaway) — retried
// like any failure, but relayed verbatim when attempts run out, since
// the backend's own error beats a synthetic one.
type attemptFunc[R any] func(ctx context.Context, ri int) (ans R, failed bool, err error)

// forward is the attempt loop both codecs run on their lane: pick a
// replica of group g (g < 0 = any group) → breaker admission → one
// attempt under the per-attempt deadline → backoff (cut short when ctx
// ends) → retry on another replica, spilling to any group when g has
// none left, up to attempts tries.
func forward[R any](ctx context.Context, l *lane, g, attempts int, try attemptFunc[R]) (R, error) {
	var last, zero R
	haveLast := false
	lastErr := errNoReplica
	tried := -1
	for a := 0; a < attempts; a++ {
		if a > 0 {
			l.retries.Inc()
			if err := l.p.opt.Backoff.Sleep(ctx, a-1, l.p.rnd); err != nil {
				break
			}
		}
		ri := l.pick(g, tried)
		if ri < 0 && g >= 0 {
			// The owning group is out mid-request: any backend answers
			// the same decide (one fleet, one database).
			ri = l.pick(-1, tried)
		}
		if ri < 0 {
			lastErr = errNoReplica
			continue // backoff: a breaker may half-open meanwhile
		}
		tried = ri
		actx, cancel := ctx, context.CancelFunc(func() {})
		if l.timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, l.timeout)
		}
		ans, failed, err := try(actx, ri)
		cancel()
		if err == nil && !failed {
			l.breakers[ri].Success()
			return ans, nil
		}
		l.breakers[ri].Failure()
		l.failures.Inc()
		if err != nil {
			haveLast, lastErr = false, err
			continue
		}
		last, haveLast = ans, true
	}
	if haveLast {
		return last, nil
	}
	// A caller that gave up, a lost hedge or Close ended the loop early:
	// no client is answered this error, so it is not an exhausted forward.
	if ctx.Err() == nil {
		l.exhausted.Inc()
	}
	return zero, lastErr
}

// hedge runs fn and, when HedgeAfter is set and fn has not answered by
// then, races a second fn (hedged=true); the first success wins. Decide
// is idempotent and answer-deterministic, so either answer is canonical.
// The loser is cancelled and awaited before hedge returns: nothing it
// reads or writes outlives the call, but the two run concurrently, so
// fn must not hand both the same response buffer.
func hedge[R any](ctx context.Context, l *lane, fn func(ctx context.Context, hedged bool) (R, error)) (R, error) {
	if l.p.opt.HedgeAfter <= 0 {
		return fn(ctx, false)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type out struct {
		ans R
		err error
	}
	ch := make(chan out, 2)
	launch := func(hedged bool) {
		go func() {
			ans, err := fn(ctx, hedged)
			ch <- out{ans, err}
		}()
	}
	launch(false)
	inflight, won := 1, false
	timer := time.NewTimer(l.p.opt.HedgeAfter)
	defer timer.Stop()
	var res out
	for inflight > 0 {
		select {
		case o := <-ch:
			inflight--
			switch {
			case won:
			case o.err == nil:
				res, won = o, true
				cancel()
			case res.err == nil:
				res = o
			}
		case <-timer.C:
			if !won {
				l.hedges.Inc()
				launch(true)
				inflight++
			}
		}
	}
	return res.ans, res.err
}
