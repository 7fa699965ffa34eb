// State export/import: the full observable algorithm state of a
// MutableTC as a plain value, and its reconstruction into a live
// instance.
//
// MutableState is the logical state the paper's algorithm is a
// deterministic function of: the stable-id topology (parents, live
// flags, snapshot residency), per-node counters, the cached set, the
// cost ledger and the round/phase/peak cursors. Everything else a TC
// holds — the positive/negative lazy aggregates, the heavy-path
// segment skeletons, the overlay's derived sums — is a pure function
// of this state and is rematerialized on import by the same bottom-up
// injection pass the amortized rebuild uses (inject), so a restored
// instance serves any suffix exactly like the captured one. The
// capture side needs no copy: MutableTC.Mirror (mirror.go) and the
// accessors expose the same fields over the instance's own buffers.
//
// internal/snapshot wraps this in a versioned, checksummed binary
// codec; this file deliberately knows nothing about bytes.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/tree"
)

// MutableState is the complete observable state of a MutableTC. All
// per-node slices are indexed by stable id over the full id space
// (dead ids included — stable ids are never reused, so preserving the
// dead entries keeps the next insertion id identical after a restore).
type MutableState struct {
	Parent []tree.NodeID // stable parent per stable id (None for the root)
	Live   []bool        // alive in the current topology
	InSnap []bool        // resident in the current dense snapshot (live or tombstoned)
	Cnt    []int64       // counter (live nodes; zero otherwise)
	Cached []bool        // cached flag (live nodes; false otherwise)

	Epoch   int64 // topology epoch of the current snapshot
	Pending int   // overlay mutations since the last rebuild

	Led         cache.Ledger
	Round       int64 // requests served
	PhaseRounds int64 // rounds within the current phase (diagnostics)
	Phase       int64 // completed phases
	Peak        int   // high-water cache occupancy
}

// RebuildFrac returns the configured rebuild threshold fraction.
func (m *MutableTC) RebuildFrac() float64 { return m.cfg.RebuildFrac }

// RestoreMutable reconstructs a live instance from a captured state
// without trace replay: the dense snapshot is rebuilt from the
// snapshot-resident stable ids (dense ids in increasing stable order,
// exactly the numbering tree.Dyn produces, so heavy paths and segment
// skeletons come out identical to the captured instance's), the
// overlay records and phantom pins are reinstalled, and the lazy
// aggregates are derived by the rebuild injection pass. It validates
// the id-space wiring and the cheap structural invariants (live
// parents, downward-closed cached set, capacity) and returns an error
// — never panics — on inconsistent input; deeper cost invariants are
// the caller's responsibility (the snapshot codec integrity-checks
// captured state upstream).
func RestoreMutable(cfg MutableConfig, st *MutableState) (*MutableTC, error) {
	if cfg.RebuildFrac <= 0 {
		cfg.RebuildFrac = 0.125
	}
	if cfg.Alpha < 2 || cfg.Alpha%2 != 0 {
		return nil, fmt.Errorf("core: restore: Alpha must be an even integer >= 2, got %d", cfg.Alpha)
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("core: restore: Capacity must be >= 1, got %d", cfg.Capacity)
	}
	if st.Led.Alpha != cfg.Alpha {
		return nil, fmt.Errorf("core: restore: ledger alpha %d does not match configured alpha %d", st.Led.Alpha, cfg.Alpha)
	}
	if st.Round < 0 || st.Phase < 0 || st.PhaseRounds < 0 || st.Peak < 0 || st.Pending < 0 || st.Epoch < 0 {
		return nil, fmt.Errorf("core: restore: negative cursor state")
	}
	ids := len(st.Live)
	if len(st.Parent) != ids || len(st.InSnap) != ids || len(st.Cnt) != ids || len(st.Cached) != ids {
		return nil, fmt.Errorf("core: restore: state arrays disagree on id-space size")
	}
	if ids == 0 || !st.Live[0] || !st.InSnap[0] {
		return nil, fmt.Errorf("core: restore: the root (stable id 0) must be live and snapshot-resident")
	}

	// Rebuild the dense snapshot: dense ids in increasing stable order.
	stable := make([]tree.NodeID, 0, ids)
	denseOf := make([]tree.NodeID, ids)
	for s := 0; s < ids; s++ {
		denseOf[s] = tree.None
		if st.InSnap[s] {
			denseOf[s] = tree.NodeID(len(stable))
			stable = append(stable, tree.NodeID(s))
		}
	}
	parents := make([]tree.NodeID, len(stable))
	for g, s := range stable {
		if s == 0 {
			parents[g] = tree.None
			continue
		}
		p := st.Parent[s]
		if p < 0 || int(p) >= ids || denseOf[p] == tree.None {
			return nil, fmt.Errorf("core: restore: snapshot node %d has non-snapshot parent %d", s, p)
		}
		parents[g] = denseOf[p]
	}
	t, err := tree.NewAtEpoch(parents, st.Epoch)
	if err != nil {
		return nil, fmt.Errorf("core: restore: invalid snapshot topology: %w", err)
	}
	dyn, err := tree.RestoreDyn(t, stable, st.Parent, st.Live, st.Pending)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}

	// Cheap logical validation: dead nodes carry no state, counters are
	// non-negative, the cached set is downward closed over the live
	// topology (caching a rule pins all its more-specifics) and fits
	// the capacity.
	occ := 0
	for s := 0; s < ids; s++ {
		if !st.Live[s] {
			if st.Cnt[s] != 0 || st.Cached[s] {
				return nil, fmt.Errorf("core: restore: dead node %d carries counter or cached state", s)
			}
			continue
		}
		if st.Cnt[s] < 0 {
			return nil, fmt.Errorf("core: restore: negative counter on node %d", s)
		}
		if st.Cached[s] {
			occ++
		}
		if s != 0 && st.Cached[st.Parent[s]] && !st.Cached[s] {
			return nil, fmt.Errorf("core: restore: cached set is not downward closed at node %d", s)
		}
		if !st.InSnap[s] && denseOf[st.Parent[s]] == tree.None {
			return nil, fmt.Errorf("core: restore: overlay leaf %d hangs under non-snapshot parent %d", s, st.Parent[s])
		}
	}
	if occ > cfg.Capacity {
		return nil, fmt.Errorf("core: restore: %d cached nodes exceed capacity %d", occ, cfg.Capacity)
	}

	m := &MutableTC{dyn: dyn, cfg: cfg}
	m.tc = m.newInner(t)
	m.tc.led = st.Led
	m.tc.round, m.tc.rounds = st.Round, st.PhaseRounds
	m.tc.phase, m.tc.peak = st.Phase, st.Peak
	m.cntS = append(m.cntS[:0], st.Cnt...)
	m.cachedS = append(m.cachedS[:0], st.Cached...)

	// Reinstall the overlay: inserted leaves (live, not snapshot-
	// resident) in increasing stable order — the order the captured
	// instance inserted them — and tombstone pins for snapshot nodes
	// deleted since the last rebuild.
	ov := m.tc.ov
	var ph []bool
	for s := 0; s < ids; s++ {
		sv := tree.NodeID(s)
		switch {
		case st.Live[s] && !st.InSnap[s]:
			gp := denseOf[st.Parent[s]]
			rec := ovLeaf{node: sv, parent: gp, cnt: st.Cnt[s], cached: st.Cached[s]}
			i := int32(len(ov.leaves))
			ov.leaves = append(ov.leaves, rec)
			ov.idx[sv] = i
			ov.byParent[gp] = append(ov.byParent[gp], i)
			ov.nLive++
			if rec.cached {
				ov.nCached++
			}
		case !st.Live[s] && st.InSnap[s] && s != 0:
			g := denseOf[s]
			ov.phNode = append(ov.phNode, g)
			if ph == nil {
				ph = make([]bool, t.Len())
			}
			ph[g] = true
		}
	}
	m.inject(m.tc, t, ph)
	return m, nil
}

// ImportState replaces the instance's state in place with a captured
// state, preserving the configuration (and any attached observer,
// which keeps receiving stable ids of the restored id space). The
// instance is untouched when an error is returned.
func (m *MutableTC) ImportState(st *MutableState) error {
	m2, err := RestoreMutable(m.cfg, st)
	if err != nil {
		return err
	}
	*m = *m2
	return nil
}
