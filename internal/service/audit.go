// Self-audit: the live re-verification of the service's central
// invariant — every cached decision, and every answer the shard's curve
// table would give now, must be bit-identical to a fresh library
// computation. An audit fans one task per shard through the
// same channels decide queries use, so the shard worker itself samples
// its own LRU (preserving single-goroutine ownership of the cache and the
// table), recomputes each sampled entry on the trusted slow path
// (computeFresh: a brand-new manager, fresh statistics, nothing pooled)
// and compares it with both the cached answer and the shard's current
// recomputation (shard.compute, which reads the curve table). Go's
// randomized map iteration makes each audit a fresh random sample for
// free. A mismatch means shard-local derived state leaked into an answer
// — exactly the bug class the architecture promises away — and degrades
// /v1/healthz to 503.
package service

import (
	"time"

	"qosrma/internal/ops"
)

// auditTask asks one shard worker to spot-check up to quota cached
// decisions against fresh library computations.
type auditTask struct {
	quota int
	reply chan<- auditShardReport
}

// auditShardReport is one shard's audit contribution.
type auditShardReport struct {
	sampled    int
	mismatches int
}

// runAudit executes on the shard worker, which owns the LRU and the
// curve table: it samples up to quota cached entries in randomized map
// order and recomputes each from scratch against the snapshot the cache
// was built from. An entry counts as one mismatch when either the cached
// answer or the shard's own recomputation differs from the fresh one.
func (sh *shard) runAudit(a *auditTask) {
	var r auditShardReport
	sh.lru.each(func(e *lruEntry) bool {
		if r.sampled >= a.quota {
			return false
		}
		r.sampled++
		k := queryKey(e.key)
		fresh := computeFresh(sh.sn, k)
		if !fresh.equal(e.res) || !fresh.equal(sh.compute(k)) {
			r.mismatches++
		}
		return true
	})
	a.reply <- r
}

// Audit spot-checks up to samples cached decisions spread across the
// shards and reports how many were sampled and how many mismatched their
// fresh recomputation. It is what the periodic self-checker and
// POST /admin/check run. The read lock pairs with Close's write lock the
// same way decide's does: while held the workers cannot stop, so every
// audit task is processed and every reply arrives.
func (s *Server) Audit(samples int) ops.AuditReport {
	rep := ops.AuditReport{Time: time.Now()}
	if samples <= 0 {
		samples = 16
	}
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.closed {
		rep.Error = errServerClosed.Error()
		return rep
	}
	n := len(s.shards)
	quota := (samples + n - 1) / n
	replies := make(chan auditShardReport, n)
	for _, sh := range s.shards {
		sh.ch <- task{audit: &auditTask{quota: quota, reply: replies}}
	}
	for i := 0; i < n; i++ {
		r := <-replies
		rep.Sampled += r.sampled
		rep.Mismatches += r.mismatches
	}
	return rep
}
