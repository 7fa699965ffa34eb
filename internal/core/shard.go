// Partitioned-serve support: the core half of the subtree-shard wave
// protocol (internal/treepar owns the orchestration).
//
// A partition cuts the tree at a set of heavy-path heads whose subtrees
// are pairwise disjoint. Heavy paths and their segment arenas never
// cross such a cut (the cut node is position 0 of its path), so two
// owners serving different cuts touch disjoint slot records, disjoint
// segment arenas and disjoint per-path cached boundaries — the only
// state they share is read-only during a wave. Every effect a request
// has above its cut is a uniform, commutative root-path add on the cut
// parent's root path (a +1 bump per paid positive, α·s−c / −α·|X| per
// fetch/evict), so a ShardView accumulates those into a per-cut
// Frontier and the coordinator applies them once at the wave barrier.
// The planner (treepar) admits a wave only if no above-cut key can
// saturate and no fetch can overflow capacity under any interleaving,
// which is what makes the parallel execution exactly equal to the
// sequential replay in submission order.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Frontier accumulates one cut's above-the-cut effects over a wave:
// the cut parent's whole root path receives key += DK and size += DS
// at the barrier. Positive bumps, fetch adjustments and evict
// adjustments are all uniform range-adds on that path, so one (DK, DS)
// pair carries a whole wave regardless of how many requests produced
// it.
type Frontier struct {
	DK int64
	DS int32
}

// OccEvent is one cache-occupancy change (a fetch of +Delta nodes or
// an evict of −Delta) stamped with the request's index inside the
// wave. Merging all views' events in index order replays the exact
// sequential occupancy trajectory, which is how CommitWave recovers
// the exact high-water mark the sequential TC would have recorded.
type OccEvent struct {
	Idx   int32
	Delta int32
}

// ShardView is one owner's window onto a shared TC during a wave: it
// serves requests that live under the owner's cuts, writing only
// below-cut state, and journals everything that must merge at the
// barrier (cost ledger, round count, occupancy events, frontiers).
// Scratch buffers are per-view so the steady-state wave path does not
// allocate.
type ShardView struct {
	a       *TC
	led     cache.Ledger
	rounds  int64
	events  []OccEvent
	evHead  int
	xbuf    []tree.NodeID
	markBuf []bool
}

// NewShardView returns a view over a for one shard owner.
func NewShardView(a *TC) *ShardView {
	return &ShardView{
		a:       a,
		led:     cache.Ledger{Alpha: a.cfg.Alpha},
		markBuf: make([]bool, a.t.Len()),
	}
}

// ServeShard serves one request whose node lives under the cut at slot
// cutSlot, accumulating above-cut effects into f and occupancy changes
// under wave index idx. The caller (the wave planner) guarantees the
// admission invariants: the cut parent is not cached, no above-cut key
// saturates during the wave, no fetch can overflow capacity, and the
// TC has no observer and a quiescent overlay.
func (sv *ShardView) ServeShard(req trace.Request, cutSlot int32, f *Frontier, idx int32) {
	a := sv.a
	sv.rounds++
	v := req.Node
	cached := a.cache.Contains(v)
	paid := (req.Kind == trace.Positive && !cached) || (req.Kind == trace.Negative && cached)
	if !paid {
		return
	}
	sv.led.PayServe()
	if req.Kind == trace.Positive {
		// The +1 on every root-path key continues above the cut.
		f.DK++
		if top := a.posRootPathBumpTo(a.t.HeavySlot(v), 1, cutSlot); top >= 0 {
			key, s := a.posRead(top)
			sv.fetch(a.t.NodeAtHeavySlot(top), top, key+int64(s)*a.cfg.Alpha, s, cutSlot, f, idx)
		}
		return
	}
	if r := a.negServe(v); r != tree.None {
		sv.evict(r, cutSlot, f, idx)
	}
}

// fetch is applyFetch restricted to a shard: no capacity check (the
// planner proved the wave fits), no observer, no overlay hooks (the
// overlay is quiescent), occupancy deferred to the barrier, and the
// ancestor adjustment split at the cut.
func (sv *ShardView) fetch(u tree.NodeID, gu int32, c int64, s int32, cutSlot int32, f *Frontier, idx int32) {
	a := sv.a
	x := a.cache.AppendMissing(sv.xbuf[:0], u)
	sv.xbuf = x
	if len(x) != int(s) {
		panic(fmt.Sprintf("core: P(%d) size mismatch: aggregate %d, collected %d", u, s, len(x)))
	}
	if err := a.cache.FetchOwned(x); err != nil {
		panic("core: " + err.Error())
	}
	sv.led.PayFetch(int(s))
	sv.events = append(sv.events, OccEvent{Idx: idx, Delta: s})
	dK := int64(s)*a.cfg.Alpha - c
	f.DK += dK
	f.DS -= s
	if gu != cutSlot {
		if nav := a.t.HeavyNav(gu); nav.Pos() > 0 {
			a.posRootPathAddTo(gu-1, dK, -s, cutSlot)
		} else {
			a.posRootPathAddTo(nav.Up(), dK, -s, cutSlot)
		}
	}
	for i := len(x) - 1; i >= 0; i-- {
		a.initHval(x[i])
	}
}

// evict is applyEvict restricted to a shard; see fetch for the deltas.
func (sv *ShardView) evict(r tree.NodeID, cutSlot int32, f *Frontier, idx int32) {
	a := sv.a
	x := sv.xbuf[:0]
	inX := sv.markBuf
	pre := a.t.Preorder()
	lo, hi := a.t.PreorderInterval(r)
	x = append(x, r)
	inX[r] = true
	for i := lo + 1; i < hi; {
		w := pre[i]
		if hA, _ := a.negRead(w); hA >= 0 {
			x = append(x, w)
			inX[w] = true
			i++
		} else {
			_, wHi := a.t.PreorderInterval(w)
			i = wHi
		}
	}
	sv.xbuf = x
	if err := a.cache.EvictOwned(x); err != nil {
		panic("core: " + err.Error())
	}
	sv.led.PayEvict(len(x))
	for i := len(x) - 1; i >= 0; i-- {
		w := x[i]
		var sz int32 = 1
		for _, ch := range a.t.Children(w) {
			if inX[ch] {
				_, cs := a.posRead(a.t.HeavySlot(ch))
				sz += cs
			}
		}
		gw := a.t.HeavySlot(w)
		a.posAssign(gw, -a.cfg.Alpha*int64(sz), sz)
		a.negAssign(gw, notCachedHA, 0)
	}
	a.clearSet(x, inX)
	total := int32(len(x))
	sv.events = append(sv.events, OccEvent{Idx: idx, Delta: -total})
	dK := -a.cfg.Alpha * int64(total)
	f.DK += dK
	f.DS += total
	gr := a.t.HeavySlot(r)
	if gr != cutSlot {
		if nav := a.t.HeavyNav(gr); nav.Pos() > 0 {
			a.posRootPathAddTo(gr-1, dK, total, cutSlot)
		} else {
			a.posRootPathAddTo(nav.Up(), dK, total, cutSlot)
		}
	}
}

// posRootPathAddTo is posRootPathAdd bounded at the cut: the climb
// adds (dK, dS) to every root-path key from slot g up to and including
// the cut head at slot stop, then stops. stop must be a heavy-path
// head on g's root path, so the climb always terminates exactly there
// (the cut's own path segment ends at position 0 = stop).
func (a *TC) posRootPathAddTo(g int32, dK int64, dS int32, stop int32) {
	for g >= 0 {
		u := a.pL[g].up
		if !upIsFlat(u) {
			pos := a.t.HeavyNav(g).Pos()
			base := g - pos
			a.posSegAdd(a.t.HeavyPathOfSlot(g), base, 0, pos, dK, dS)
			if base == stop {
				return
			}
			g = upDecode(a.pL[base].up)
			continue
		}
		l := a.pLeaf(g)
		l.key += dK
		if dS != 0 {
			a.pSize(g).size += dS
		}
		if g == stop {
			return
		}
		g = u
	}
	panic("core: bounded root-path add ran past its cut")
}

// posRootPathBumpTo is posRootPathBump bounded at the cut: keys from
// slot g through the cut head at slot stop get +dK, and the topmost
// saturated slot within that range is returned (−1 if none). The
// planner guarantees no above-cut key can saturate during the wave, so
// the bounded answer equals the sequential full-path answer.
func (a *TC) posRootPathBumpTo(g int32, dK int64, stop int32) int32 {
	top := int32(-1)
	for g >= 0 {
		u := a.pL[g].up
		if !upIsFlat(u) {
			pos := a.t.HeavyNav(g).Pos()
			base := g - pos
			pid := a.t.HeavyPathOfSlot(g)
			a.posSegAdd(pid, base, 0, pos, dK, 0)
			if hit := a.posSegFirstSat(pid, base, pos); hit >= 0 {
				top = base + hit
			}
			if base == stop {
				return top
			}
			g = upDecode(a.pL[base].up)
			continue
		}
		l := a.pLeaf(g)
		l.key += dK
		if l.key >= 0 {
			top = g
		}
		if g == stop {
			return top
		}
		g = u
	}
	panic("core: bounded root-path bump ran past its cut")
}

// WarmBoundary fixes the lazy epoch of the cut parent's negative-side
// slot record, so the boundary test shard owners perform there during
// a wave (the "is the parent cached" sentinel read in negServe and
// negFlipAt) is a pure read. The coordinator calls it between rounds
// for every cut a wave involves; the epoch cannot change mid-wave, so
// the warmed record stays clean.
func (a *TC) WarmBoundary(cut tree.NodeID) {
	if up := a.nL[a.t.HeavySlot(cut)].up; up >= 0 {
		a.nLeaf(up)
	}
}

// AboveCutSlack returns how many positive bumps the root path strictly
// above cut can absorb before some key saturates: −max key over the
// cut parent's root path. Between rounds every root-path key of a
// non-cached node is < 0 (Lemma 5.1), so a non-positive slack is an
// invariant breach. Call only for cuts whose parent is not cached (all
// strict ancestors are then non-cached by downward closure, so their
// aggregates are live).
func (a *TC) AboveCutSlack(cut tree.NodeID) int64 {
	up := a.t.HeavyNav(a.t.HeavySlot(cut)).Up()
	if up < 0 {
		panic("core: AboveCutSlack on the root")
	}
	m := a.posRootPathMax(up)
	if m >= 0 {
		panic("core: saturated key above an idle cut (between-rounds invariant breach)")
	}
	return -m
}

// MissingBelow returns |P(cut)|: how many nodes of T(cut) are not
// cached — the largest number of nodes any wave of requests under the
// cut can add to the cache.
func (a *TC) MissingBelow(cut tree.NodeID) int32 {
	if a.cache.Contains(cut) {
		return 0
	}
	_, s := a.posRead(a.t.HeavySlot(cut))
	return s
}

// ApplyFrontier settles one cut's accumulated above-cut effects: one
// range-add of (DK, DS) on the cut parent's whole root path.
func (a *TC) ApplyFrontier(cut tree.NodeID, f Frontier) {
	if f == (Frontier{}) {
		return
	}
	up := a.t.HeavyNav(a.t.HeavySlot(cut)).Up()
	if up < 0 {
		panic("core: ApplyFrontier on the root")
	}
	a.posRootPathAdd(up, f.DK, f.DS)
}

// CommitWave merges the views' journals into the TC at a wave barrier:
// round and cost counters add up (the requests all happened), and the
// per-view occupancy events merge in wave order to replay the exact
// sequential occupancy trajectory — settling cache.Len and recovering
// the exact fetch-time high-water mark. preLen must be the occupancy
// captured before the wave started. Frontier application is separate
// (ApplyFrontier) because the planner owns the per-cut frontiers.
func (a *TC) CommitWave(views []*ShardView, preLen int) {
	for _, sv := range views {
		a.round += sv.rounds
		a.rounds += sv.rounds
		a.led.Serve += sv.led.Serve
		a.led.Move += sv.led.Move
		a.led.Fetched += sv.led.Fetched
		a.led.Evicted += sv.led.Evicted
		sv.rounds = 0
		sv.led.Reset()
	}
	n := preLen
	peak := a.peak
	for {
		best := -1
		for vi, sv := range views {
			if sv.evHead == len(sv.events) {
				continue
			}
			if best < 0 || sv.events[sv.evHead].Idx < views[best].events[views[best].evHead].Idx {
				best = vi
			}
		}
		if best < 0 {
			break
		}
		sv := views[best]
		ev := sv.events[sv.evHead]
		sv.evHead++
		n += int(ev.Delta)
		if ev.Delta > 0 && n > peak {
			peak = n
		}
	}
	for _, sv := range views {
		sv.events = sv.events[:0]
		sv.evHead = 0
	}
	a.peak = peak
	a.cache.AdjustLen(n - preLen)
	if a.trk != nil {
		// Shard owners serve concurrently and record nothing.
		a.trk.full = true
	}
}

// Observed reports whether an analysis observer is attached; observers
// require the strict sequential serve order, so the partitioned path
// refuses to run with one.
func (a *TC) Observed() bool { return a.cfg.Observer != nil }
