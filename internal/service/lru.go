package service

import "container/list"

// lruEntry is one cached decision. The key is the whole resolved query
// (a queryKey), so the self-checker can decode it and recompute the
// answer from scratch; h is the key's 64-bit hash, kept so the admission
// filter can estimate the eviction victim's frequency without rehashing.
type lruEntry struct {
	key string
	h   uint64
	res decideResult
}

// lru is a least-recently-used map of decision results guarded by a
// TinyLFU-style admission filter: once the cache is full, a computed
// decision is only cached if its key has been seen recently (doorkeeper)
// and at least as often as the key it would evict (frequency sketch).
// One-hit-wonder queries from scan-heavy traces therefore pass through
// without displacing the hot working set. It is not safe for concurrent
// use: every instance is owned by exactly one shard worker, which is
// what keeps the decide hot path lock-free — admission decisions
// included.
//
//qosrma:shardowned
type lru struct {
	cap   int
	order *list.List               // front = most recent
	byKey map[string]*list.Element // -> *lruEntry
	adm   admission
}

func newLRU(capacity int) *lru {
	l := &lru{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element, max(capacity, 0)),
	}
	if capacity > 0 {
		l.adm.init(capacity)
	}
	return l
}

// keyHash is the shared 64-bit key hash (FNV-1a, inlined so the hot path
// neither allocates a hash.Hash nor copies the key). decideInto computes
// it once per query; the task carries it to shard routing and to the
// admission filter's probe derivation.
func keyHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// get returns the cached decision, marks it most recently used and
// records the access in the admission filter's frequency sketch (a hot
// key's estimate must keep growing, or the filter would evict-protect
// stale entries). The key may alias a transient buffer: the map lookup
// does not retain it.
func (l *lru) get(key []byte, h uint64) (decideResult, bool) {
	el, ok := l.byKey[string(key)]
	if !ok {
		return decideResult{}, false
	}
	l.adm.record(h)
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry).res, true
}

// admit decides whether a just-computed decision should enter the cache,
// recording the sighting either way. Below capacity everything is
// admitted (warm-up); at capacity a first-sighted key is turned away
// (the doorkeeper absorbs it — if it ever returns, it qualifies), and a
// re-sighted key must match the eviction victim's estimated frequency.
// The caller counts a false return as admission-rejected.
func (l *lru) admit(h uint64) bool {
	if l.cap <= 0 {
		return false
	}
	seen := l.adm.record(h)
	if l.order.Len() < l.cap {
		return true
	}
	if !seen {
		return false
	}
	victim := l.order.Back().Value.(*lruEntry)
	return l.adm.estimate(h) >= l.adm.estimate(victim.h)
}

// add inserts or updates a decision, evicting the least recently used
// entry when a new key arrives at capacity. A key that is already
// present is updated in place and marked most recently used — callers
// need not guarantee absence.
func (l *lru) add(key []byte, h uint64, res decideResult) {
	if l.cap <= 0 {
		return
	}
	if el, ok := l.byKey[string(key)]; ok {
		e := el.Value.(*lruEntry)
		e.res, e.h = res, h
		l.order.MoveToFront(el)
		return
	}
	if l.order.Len() >= l.cap {
		back := l.order.Back()
		delete(l.byKey, back.Value.(*lruEntry).key)
		l.order.Remove(back)
	}
	k := string(key) // the entry owns a copy: key may alias connection scratch
	l.byKey[k] = l.order.PushFront(&lruEntry{key: k, h: h, res: res})
}

// each visits cached entries in Go's randomized map order — which is what
// gives the self-checker a free uniform-ish sample — stopping when fn
// returns false. Only the owning shard worker may call it.
func (l *lru) each(fn func(*lruEntry) bool) {
	for _, el := range l.byKey {
		if !fn(el.Value.(*lruEntry)) {
			return
		}
	}
}

// len returns the number of cached decisions.
func (l *lru) len() int { return l.order.Len() }

// admission is the doorkeeper + frequency-sketch pair (the TinyLFU
// construction): a bloom-filter doorkeeper absorbs the first sighting of
// every key, and a 4-bit count-min sketch estimates how often re-sighted
// keys recur. Both age by a periodic reset — after window recorded
// sightings the sketch counters are halved and the doorkeeper cleared —
// so the estimates track the recent access distribution, not all of
// history.
//
//qosrma:shardowned
type admission struct {
	door     []uint64 // doorkeeper bloom bits (2 probes)
	sketch   []uint64 // 4-bit counters, 16 per word (4 probes, count-min)
	doorMask uint32   // doorkeeper bit-index mask (power-of-two size)
	ctrMask  uint32   // sketch counter-index mask (power-of-two size)
	samples  int      // sightings since the last reset
	window   int      // reset period in sightings
}

// init sizes the filter for a cache of cap entries: 8 sketch counters
// per cache slot (sparse keeps count-min overestimates low), a
// doorkeeper of 4 bits per counter (it must absorb every distinct key of
// a sample window at a low false-positive rate, or scans would leak
// straight into the frequency comparison), and a sample window of ~8
// sightings per slot so the estimates track the recent distribution.
func (a *admission) init(cap int) {
	n := 1024
	for n < 8*cap {
		n <<= 1
	}
	a.ctrMask = uint32(n - 1)
	a.doorMask = uint32(4*n - 1)
	a.door = make([]uint64, 4*n/64)
	a.sketch = make([]uint64, n/16)
	a.samples = 0
	a.window = 8 * cap
	if a.window < 1024 {
		a.window = 1024
	}
}

// probe derives the i-th probe index from the key hash (double hashing:
// low word stepped by the odd-ified high word).
func (a *admission) probe(h uint64, i, mask uint32) uint32 {
	return (uint32(h) + i*(uint32(h>>32)|1)) & mask
}

// record notes one sighting of h, reporting whether the doorkeeper had
// already seen it. First sighting: set the doorkeeper bits. Re-sighting:
// bump the sketch counters (saturating at 15). Ages the filter when the
// sample window fills.
func (a *admission) record(h uint64) (seen bool) {
	if a.ctrMask == 0 {
		return false
	}
	a.samples++
	if a.samples >= a.window {
		a.reset()
	}
	seen = true
	for i := uint32(0); i < 2; i++ {
		p := a.probe(h, i, a.doorMask)
		w, b := p>>6, uint64(1)<<(p&63)
		if a.door[w]&b == 0 {
			a.door[w] |= b
			seen = false
		}
	}
	if !seen {
		return false
	}
	for i := uint32(0); i < 4; i++ {
		p := a.probe(h, 2+i, a.ctrMask)
		w, sh := p>>4, (p&15)*4
		if (a.sketch[w]>>sh)&0xf < 15 {
			a.sketch[w] += 1 << sh
		}
	}
	return true
}

// estimate returns the frequency estimate for h: the count-min minimum
// over the sketch probes, plus one if the doorkeeper holds a sighting.
func (a *admission) estimate(h uint64) int {
	if a.ctrMask == 0 {
		return 0
	}
	est := 15
	for i := uint32(0); i < 4; i++ {
		p := a.probe(h, 2+i, a.ctrMask)
		if c := int((a.sketch[p>>4] >> ((p & 15) * 4)) & 0xf); c < est {
			est = c
		}
	}
	door := 1
	for i := uint32(0); i < 2; i++ {
		p := a.probe(h, i, a.doorMask)
		if a.door[p>>6]&(uint64(1)<<(p&63)) == 0 {
			door = 0
			break
		}
	}
	return est + door
}

// reset ages the filter: sketch counters halve, the doorkeeper clears,
// and the sample clock rewinds halfway (the classic TinyLFU reset).
func (a *admission) reset() {
	const oddBits = 0x1111111111111111
	for i, w := range a.sketch {
		// Halve every 4-bit lane in parallel: shift, then clear the bit
		// that crossed each lane boundary.
		a.sketch[i] = (w >> 1) &^ (oddBits << 3)
	}
	for i := range a.door {
		a.door[i] = 0
	}
	a.samples /= 2
}
