// Batched serve core: amortized burst processing with run-length
// coalescing and shared lazy flushes.
//
// The FIB-update application delivers requests in correlated bursts —
// α-negative update storms on one rule, repeated hits on one trie
// chain — yet Serve pays the full O(log² n) heavy-path machinery for
// every element of such a burst. ServeBatch keeps Serve's semantics
// EXACTLY (identical per-request costs, ledger, phases, cache
// contents) while charging a whole run of identical requests a
// constant number of heavy-path traversals:
//
//   - a run of k positive requests on non-cached v first computes the
//     saturation point analytically: every request adds +1 to every
//     root-path key, so the first saturated prefix cap appears after
//     exactly j* = −max{key(u) : u on v's root path} requests (a
//     root-path prefix-max query, O(log² n)). If j* > k the whole run
//     collapses into ONE +k range-add per heavy-path segment — each
//     path's lazy segment tree is flushed/epoch-stamped once per run
//     instead of once per request. Otherwise j* requests are settled
//     by a +j* range-add, the unique maximal saturated changeset is
//     fetched (after which v is cached and the rest of the run is
//     unpaid), or the phase ends and the loop re-enters with the
//     remaining k−j* requests;
//
//   - a run of k negative requests on cached v advances hA(v) in
//     closed form: while hA(v) stays < 0 the bumps are absorbed by the
//     counter alone (ONE point-add settles the whole sub-run — the
//     α-negative storm of Appendix B costs O(1) structure work instead
//     of α climbs). Once hA(v) ≥ 0 each bump propagates +1 along the
//     run of hA ≥ 0 ancestors, and the propagation is coalesced too:
//     the nearest hA < 0 ancestor w absorbs bumps until it flips at
//     exactly −hA(w) more requests, so min(k, −hA(w)) requests become
//     ONE range-add along the chain [v..w]. Flips (hB re-propagation
//     or the eviction of a saturated cap) are exact single events;
//
//   - unpaid requests change no state at all, so once v's cached
//     status makes the run unpaid the remainder is consumed in O(1).
//
// All scratch is the instance's persistent arena (the same xbuf /
// markBuf Serve uses), so the steady-state batched path performs zero
// heap allocations.
package core

import (
	"repro/internal/trace"
	"repro/internal/tree"
)

// ServeBatch serves a whole batch of requests with semantics identical
// to calling Serve once per element, in order, and returns the total
// serving and movement cost of the batch. Consecutive identical
// requests are coalesced into closed-form counter advances (see the
// file comment), so correlated bursts cost O(log² n) per run instead
// of O(run·log² n).
//
// When an Observer is configured the batch is served strictly
// per-request (observers see every OnRequest event), which keeps the
// contract exact at the cost of the amortization.
func (a *TC) ServeBatch(batch trace.Trace) (serveCost, moveCost int64) {
	if a.cfg.Observer != nil {
		for _, req := range batch {
			s, m := a.Serve(req)
			serveCost += s
			moveCost += m
		}
		return serveCost, moveCost
	}
	serveBefore, moveBefore := a.led.Serve, a.led.Move
	for i := 0; i < len(batch); {
		req := batch[i]
		j := i + 1
		for j < len(batch) && batch[j] == req {
			j++
		}
		a.serveRun(req, int64(j-i))
		i = j
	}
	return a.led.Serve - serveBefore, a.led.Move - moveBefore
}

// payServeN settles n consecutive paid requests: rounds advance and
// the serving cost is charged, exactly as n Serve calls would.
func (a *TC) payServeN(n int64) {
	a.round += n
	a.rounds += n
	a.led.PayServeN(n)
}

// serveRun serves a run of k identical requests. Each loop iteration
// consumes at least one request and applies at most one movement
// event, so the state entering every iteration is a legal
// between-rounds state and the per-request semantics are preserved.
func (a *TC) serveRun(req trace.Request, k int64) {
	v := req.Node
	for k > 0 {
		cached := a.cache.Contains(v)
		paid := (req.Kind == trace.Positive && !cached) || (req.Kind == trace.Negative && cached)
		if !paid {
			// Unpaid requests leave counters untouched; by Lemma
			// 5.1(3) no changeset can become saturated, so the whole
			// remainder of the run is free.
			a.round += k
			a.rounds += k
			return
		}
		if k == 1 {
			// Singleton runs take Serve's one-pass path: the analytic
			// saturation query would only duplicate the traversal.
			a.payServeN(1)
			if req.Kind == trace.Positive {
				a.servePositive(v)
			} else {
				a.serveNegative(v)
			}
			return
		}
		if req.Kind == trace.Positive {
			k -= a.servePositiveRun(v, k)
		} else {
			k -= a.serveNegativeRun(v, k)
		}
	}
}

// servePositiveRun settles up to k paid positive requests on
// non-cached v and returns how many it consumed: either the whole run
// (no saturation, one +k range-add per root-path segment) or exactly
// the j* requests leading up to the run's first fetch / phase end.
func (a *TC) servePositiveRun(v tree.NodeID, k int64) int64 {
	gv := a.t.HeavySlot(v)
	m := a.posRootPathMax(gv)
	if m >= 0 {
		panic("core: saturated changeset survived between rounds (Lemma 5.1 breach)")
	}
	if a.trk != nil {
		a.trk.mark(v)
	}
	j := -m // analytic saturation point: first fetch after j requests
	if j > k {
		a.posRootPathAdd(gv, k, 0)
		a.payServeN(k)
		return k
	}
	a.payServeN(j)
	// Apply the +j prefix adds and locate the topmost saturated slot —
	// servePositive's climb, with the run's j in place of +1.
	top := a.posRootPathBump(gv, j)
	if top < 0 {
		panic("core: analytic saturation point missed its saturated slot")
	}
	key, s := a.posRead(top)
	a.applyFetch(a.t.NodeAtHeavySlot(top), top, key+int64(s)*a.cfg.Alpha, s)
	return j
}

// posRootPathMax returns the maximum key over the root path of the
// node at slot g: one prefix-max query per heavy-path segment. Between
// rounds every root-path key is < 0 (Lemma 5.1(3)), so −max is the
// number of positive requests until the first saturation.
func (a *TC) posRootPathMax(g int32) int64 {
	m := int64(negInf)
	for g >= 0 {
		u := a.pL[g].up
		if !upIsFlat(u) {
			pos := a.t.HeavyNav(g).Pos()
			base := g - pos
			if mm := a.posSegMax(a.t.HeavyPathOfSlot(g), base, pos); mm > m {
				m = mm
			}
			g = upDecode(a.pL[base].up)
			continue
		}
		if key := a.pLeaf(g).key; key > m {
			m = key
		}
		g = u
	}
	return m
}

// posSegMax returns the maximum key over leaf positions [0..p] of
// segment path pid (base slot base). The prefix consists of root-path
// ancestors of a non-cached node, hence of non-cached slots only, so
// internal maxes fully inside the range are exact (stale cached-slot
// keys can only sit at positions > p).
func (a *TC) posSegMax(pid, base, p int32) int64 {
	off, pw := a.seg.Meta(pid)
	l := a.t.HeavyPathLen(pid)
	return a.posMaxRec(off, base, pw, l, 1, 0, pw, p, 0)
}

func (a *TC) posMaxRec(off, base, p, l, t, lo, hi, qr int32, acc int64) int64 {
	if lo > qr {
		return negInf
	}
	if t >= p { // leaf
		i := t - p
		if i >= l {
			return negInf
		}
		return a.pLeaf(base+i).key + acc
	}
	nd := a.pInt(off + t - 1)
	if hi-1 <= qr { // fully covered: the cached max is exact here
		return nd.mx + acc
	}
	acc += nd.addK
	mid := (lo + hi) / 2
	lv := a.posMaxRec(off, base, p, l, 2*t, lo, mid, qr, acc)
	rv := a.posMaxRec(off, base, p, l, 2*t+1, mid, hi, qr, acc)
	if rv > lv {
		lv = rv
	}
	return lv
}

// serveNegativeRun settles up to k paid negative requests on cached v
// and returns how many it consumed. Sub-runs between events collapse
// into single point/range adds; every flip (hB re-propagation or
// eviction) is applied as the exact single event it is in the
// per-request replay.
func (a *TC) serveNegativeRun(v tree.NodeID, k int64) int64 {
	if a.trk != nil {
		a.trk.mark(v)
	}
	g := a.t.HeavySlot(v)
	hA, _ := a.negReadSlot(g)
	if hA+k < 0 {
		// All k bumps keep hA(v) < 0: contribution (0,0) throughout,
		// the whole run is absorbed by one point-add.
		a.negPointAdd(g, k)
		a.payServeN(k)
		return k
	}
	if j := -1 - hA; j > 0 {
		// Absorb bumps in closed form until hA(v) reaches exactly −1;
		// the next request is the flip event, handled singly below.
		a.negPointAdd(g, j)
		a.payServeN(j)
		return j
	}
	if hA == -1 {
		// Flip of v itself: eviction of v's saturated cap or an hB
		// re-propagation — a genuine event, served as one request.
		a.payServeN(1)
		a.serveNegative(v)
		return 1
	}
	// hA(v) ≥ 0: each bump adds +1 along the run of hA ≥ 0 slots from
	// v through the nearest hA < 0 ancestor w (which absorbs it). w
	// flips after exactly −hA(w) bumps, so min(k, −hA(w)) requests
	// coalesce into one range-add along the chain; the flip, if
	// reached, is applied exactly as negPropagateA would.
	w, hAw, hBw := a.negNearestNeg(g)
	j := -hAw
	if j > k {
		j = k
	}
	a.negChainAdd(g, j)
	a.payServeN(j)
	if j == -hAw {
		if r := a.negFlipAt(w, hBw); r != tree.None {
			a.applyEvict(r)
		}
	}
	return j
}

// negPointAdd adds dA to hA at slot g only (the absorbed-bump case).
func (a *TC) negPointAdd(g int32, dA int64) {
	l := a.nLeaf(g)
	if l.posF&cSegBit == 0 {
		l.hA += dA
		return
	}
	pos := l.posF &^ cSegBit
	a.negAddRange(g-pos, pos, pos, dA, 0)
}

// negNearestNeg walks the cached chain upward from slot g (inclusive)
// and returns the nearest slot with hA < 0 along it together with its
// (hA, hB). By Lemma 5.1 the cached-tree root has hA < 0 between
// rounds, so the climb can neither cross the cached boundary nor run
// off the tree root.
func (a *TC) negNearestNeg(g int32) (int32, int64, int64) {
	for g >= 0 {
		l := a.nLeaf(g)
		if l.posF&cSegBit != 0 {
			p := l.posF &^ cSegBit
			base := g - p
			if i := a.negLastNeg(base, p); i >= 0 {
				hA, hB := a.negReadSlot(base + i)
				if hA <= notCachedHA/2 {
					panic("core: positive hval run crossed the cached-tree boundary (Lemma 5.1 breach)")
				}
				return base + i, hA, hB
			}
			g = a.nL[base].up
			continue
		}
		if l.hA <= notCachedHA/2 {
			panic("core: positive hval run crossed the cached-tree boundary (Lemma 5.1 breach)")
		}
		if l.hA < 0 {
			return g, l.hA, l.hB
		}
		g = l.up
	}
	panic("core: positive hval run reached the tree root (Lemma 5.1 breach)")
}

// negChainAdd adds dA to hA of every slot on the run of hA ≥ 0 slots
// from g (inclusive) through the nearest hA < 0 slot, which absorbs
// the add — dA repetitions of negPropagateA's climb in one pass. The
// caller guarantees the absorbing slot stays ≤ 0 (flips are its
// responsibility).
func (a *TC) negChainAdd(g int32, dA int64) {
	for g >= 0 {
		l := a.nLeaf(g)
		if l.posF&cSegBit != 0 {
			p := l.posF &^ cSegBit
			base := g - p
			if i := a.negLastNeg(base, p); i >= 0 {
				a.negAddRange(base, i, p, dA, 0)
				return
			}
			a.negAddRange(base, 0, p, dA, 0)
			g = a.nL[base].up
			continue
		}
		if l.hA < 0 {
			l.hA += dA
			return
		}
		l.hA += dA
		g = l.up
	}
	panic("core: positive hval run reached the tree root (Lemma 5.1 breach)")
}
