// Stable-id state mirror: the logical per-node state of a MutableTC
// (counter and cached flag by stable id), kept current incrementally.
//
// The serve core never materialises counters (see tc.go), so reading
// the whole state back — for a rebuild's migration or a supervision
// capture — means reconstructing every counter from the lazy
// aggregates. Between two reads, though, a node's state changes only
// at three kinds of events: a paid request to it, an applied fetch or
// evict changeset containing it (counters reset), and a phase end
// (everything resets). The embedded TC therefore records the dense ids
// those events touch in a dirty list (tracker), a phase end or Reset
// records one "cleared" flag, and refresh re-reads only the dirty
// nodes. Everything the list cannot describe cheaply — any overlay
// activity (overlay serves, fetch joiners, overlay evictions), an
// id-space change (Insert, Delete), a restore, a partitioned wave, an
// overflowing list — sets the "full" flag, and the next refresh
// rebuilds the mirror in one linear sweep over the heavy slots.
//
// Because the mirror is indexed by stable id it survives rebuilds: a
// rebuild refreshes, migrates the mirror into the new snapshot and
// starts the new inner TC with a clean tracker.
package core

import "repro/internal/tree"

// tracker records which nodes (dense ids of the current snapshot) may
// have changed logical state since the last refresh. Recording is one
// store into a preallocated list, duplicates included; refresh
// deduplicates. The list holds a tenth of the snapshot (plus a small
// floor, so small trees refresh incrementally too): past that a full
// sweep is the cheaper refresh (see refresh), so an overflowing mark
// just sets full, which also bounds the memory of an instance that is
// never refreshed.
type tracker struct {
	dirty   []tree.NodeID // capacity fixed at resize
	seen    []bool        // by dense id; all false outside refresh
	cleared bool          // every counter was zeroed and the cache emptied
	full    bool          // refresh everything: the dirty list is incomplete
}

func (k *tracker) mark(v tree.NodeID) {
	if n := len(k.dirty); n < cap(k.dirty) {
		k.dirty = k.dirty[:n+1]
		k.dirty[n] = v
	} else {
		k.full = true
	}
}

func (k *tracker) markAll(x []tree.NodeID) {
	for _, v := range x {
		k.mark(v)
	}
}

// clearAll records a phase end or Reset: every counter is zero and the
// cache is empty, so earlier marks are moot.
func (k *tracker) clearAll() {
	k.dirty = k.dirty[:0]
	k.cleared = true
}

// reset empties the tracker (the mirror is current).
func (k *tracker) reset() {
	k.dirty = k.dirty[:0]
	k.cleared, k.full = false, false
}

// resize fits the tracker to a snapshot of n nodes.
func (k *tracker) resize(n int) {
	if cap(k.seen) < n {
		k.seen = make([]bool, n)
	}
	k.seen = k.seen[:n]
	if c := n/10 + 64; cap(k.dirty) < c {
		k.dirty = make([]tree.NodeID, 0, c)
	} else {
		k.dirty = k.dirty[:0:c]
	}
}

// refresh brings the mirror (cntS, cachedS) up to date with the live
// state: O(dirty nodes) after plain serving, one linear sweep after
// anything else. It allocates nothing once the buffers have grown.
//
// Re-reading a dirty node scatters reads over its own and its
// children's aggregates and costs about as much as ten sweep slots
// (measured on a 131072-node binary tree), which is why the dirty
// list stops at a tenth of the snapshot and an overflow sweeps.
func (m *MutableTC) refresh() {
	k := m.trk
	if k.full {
		m.refreshFull()
		k.reset()
		return
	}
	if k.cleared {
		clear(m.cntS)
		clear(m.cachedS)
	}
	a := m.tc
	for _, g := range k.dirty {
		if k.seen[g] {
			continue
		}
		k.seen[g] = true
		s := m.dyn.Stable(g)
		if m.dyn.Live(s) { // a tombstone's entry is already zero
			m.cntS[s] = a.Counter(g)
			m.cachedS[s] = a.cache.Contains(g)
		}
	}
	for _, g := range k.dirty {
		k.seen[g] = false
	}
	k.reset()
}

// refreshFull rebuilds the mirror from scratch. Counter(v) subtracts
// the children's share from v's own aggregate (Σ cnt(P(c)) over
// non-cached children when v is not cached, Σ⁺hA(c) when it is); here
// every slot instead adds its share to its parent's accumulator, and
// since a child's heavy slot always follows its parent's, one
// descending sweep completes each accumulator before its slot is read.
func (m *MutableTC) refreshFull() {
	ids := m.dyn.NumIDs()
	m.cntS = fitInt64(m.cntS, ids)
	m.cachedS = fitBool(m.cachedS, ids)
	clear(m.cntS)
	clear(m.cachedS)
	a := m.tc
	t := a.t
	n := t.Len()
	alpha := m.cfg.Alpha
	// The injection scratch doubles as the per-slot accumulators.
	m.cntP = fitInt64(m.cntP, n) // Σ cnt(P(c)) over non-cached children
	m.hAv = fitInt64(m.hAv, n)   // Σ⁺hA(c) over cached children
	accP, accN := m.cntP, m.hAv
	clear(accP)
	clear(accN)
	ov := a.ov
	for i := range ov.leaves {
		l := &ov.leaves[i]
		if l.dead {
			continue
		}
		m.cntS[l.node], m.cachedS[l.node] = l.cnt, l.cached
		gp := t.HeavySlot(l.parent)
		if !l.cached {
			accP[gp] += l.cnt
		} else if hA := l.cnt - alpha; hA >= 0 {
			accN[gp] += hA
		}
	}
	for g := int32(n) - 1; g >= 0; g-- {
		v := t.NodeAtHeavySlot(g)
		up := a.nL[g].up
		cached := a.cache.Contains(v)
		var cnt int64
		if cached {
			hA, _ := a.negReadSlot(g)
			if up >= 0 && hA >= 0 {
				accN[up] += hA
			}
			cnt = hA + alpha - accN[g]
		} else {
			key, size := a.posRead(g)
			cp := key + int64(size)*alpha
			if up >= 0 {
				accP[up] += cp
			}
			cnt = cp - accP[g]
		}
		if s := m.dyn.Stable(v); m.dyn.Live(s) { // tombstones stay zero
			m.cntS[s], m.cachedS[s] = cnt, cached
		}
	}
}

// fitInt64 returns b resized to n, reallocating only when its capacity
// is short. Each buffer is guarded on its own: size-class rounding
// differs per element type, so equal lengths do not imply equal
// capacities.
func fitInt64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

func fitBool(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// Mirror refreshes the stable-id state mirror and returns it: the
// counter and cached flag of every stable id, dead ids reading zero and
// false. Together with Dyn and the scalar accessors it is the full
// state MutableState carries, without copies. The slices alias the
// instance's buffers: they are valid until the next call that changes
// the instance and must not be modified.
func (m *MutableTC) Mirror() (cnt []int64, cached []bool) {
	m.refresh()
	return m.cntS, m.cachedS
}
