package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/tree"
)

// TestServeZeroAllocs asserts that steady-state TC.Serve (no observer)
// performs zero heap allocations per request, fetch/evict rounds
// included: all scratch space (changeset buffer, membership bitmap) is
// persistent, and changesets are collected by walking preorder
// intervals rather than heap-allocated DFS stacks.
//
// The trace is replayed once to grow the scratch buffers to the trace's
// maximum demand, then the TC is Reset (which keeps scratch capacity)
// and the identical deterministic replay is measured.
func TestServeZeroAllocs(t *testing.T) {
	shapes := []struct {
		name     string
		t        *tree.Tree
		capacity int
	}{
		{"star", tree.Star(512), 256},
		{"path", tree.Path(256), 128},
		{"binary", tree.CompleteKary(1024, 2), 512},
		// Deep shapes exercise the heavy-path segment trees (paths
		// longer than tree.FlatPathMax): range-adds, first-saturated /
		// last-negative descents and point assigns must all run on
		// persistent arenas.
		{"deep-path", tree.Path(4096), 2048},
		{"caterpillar", tree.Caterpillar(1024, 3), 2048},
		{"deep-random", tree.Random(rand.New(rand.NewSource(9)), 4096, 3), 2048},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			input := trace.RandomMixed(rng, sh.t, 4096)
			tc := New(sh.t, Config{Alpha: 8, Capacity: sh.capacity})
			for _, req := range input {
				tc.Serve(req)
			}
			tc.Reset()
			allocs := testing.AllocsPerRun(3, func() {
				for _, req := range input {
					tc.Serve(req)
				}
				tc.Reset()
			})
			if allocs != 0 {
				t.Errorf("steady-state Serve allocated %.1f times per %d-request replay, want 0", allocs, len(input))
			}
			if tc.Ledger().Total() != 0 {
				t.Fatalf("Reset did not zero the ledger")
			}
		})
	}
}

// TestMutableServeZeroAllocs asserts that a dynamic-topology instance's
// steady-state serve path between rebuilds performs zero heap
// allocations, with a non-empty overlay (inserted leaves pending, a
// withdrawn tombstone pinned) and requests routed to both snapshot and
// overlay nodes: the stable→dense translation, the overlay serve
// paths, fetch joiners and phase-flush re-pinning must all run on
// persistent scratch.
func TestMutableServeZeroAllocs(t *testing.T) {
	base := tree.CompleteKary(4096, 2)
	m := NewMutable(base, MutableConfig{Config: Config{Alpha: 8, Capacity: 2048}})
	// A handful of mutations, far below the rebuild threshold (512).
	var inserted []tree.NodeID
	for i := 0; i < 16; i++ {
		v, err := m.Insert(tree.NodeID(1 + i*17))
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, v)
	}
	if err := m.Delete(tree.NodeID(base.Len() - 1)); err != nil { // tombstone a snapshot leaf
		t.Fatal(err)
	}
	if m.Rebuilds() != 0 {
		t.Fatalf("rebuild fired below threshold")
	}
	rng := rand.New(rand.NewSource(13))
	input := trace.RandomMixed(rng, base, 4096)
	for i := range input {
		if i%7 == 0 {
			input[i].Node = inserted[rng.Intn(len(inserted))]
		} else if input[i].Node == tree.NodeID(base.Len()-1) {
			input[i].Node = 0 // avoid the withdrawn id (a no-op anyway)
		}
	}
	for _, req := range input {
		m.Serve(req)
	}
	m.Reset()
	allocs := testing.AllocsPerRun(3, func() {
		for _, req := range input {
			m.Serve(req)
		}
		m.Reset()
	})
	if allocs != 0 {
		t.Errorf("steady-state dynamic Serve allocated %.1f times per %d-request replay, want 0", allocs, len(input))
	}
	if m.Rebuilds() != 0 {
		t.Fatalf("serving triggered a rebuild")
	}
}

// TestMutableTrackedZeroAllocs asserts that change tracking keeps the
// dynamic-topology batched serve path allocation-free, and that a
// steady-state refresh of the stable-id mirror allocates nothing in
// either mode: the incremental re-read of the dirty list and the full
// sweep. As in the tests above, one replay grows the scratch (dirty
// list included) to the trace's demand, Reset keeps it, and the
// identical replay is measured.
func TestMutableTrackedZeroAllocs(t *testing.T) {
	tr := tree.CompleteKary(16384, 2)
	m := NewMutable(tr, MutableConfig{Config: Config{Alpha: 8, Capacity: 2048}})
	rng := rand.New(rand.NewSource(21))
	input := trace.RandomMixed(rng, tr, 8192)
	input = append(input, trace.Bursts(rng, tr, trace.BurstsConfig{Rounds: 8192, RunLen: 16, ZipfS: 1.1, NegFrac: 0.5})...)
	replay := func(full bool) {
		for lo := 0; lo < len(input); lo += 512 {
			m.ServeBatch(input[lo : lo+512])
			m.trk.full = m.trk.full || full
			m.Mirror()
		}
		m.Reset()
	}
	replay(true)
	replay(false)
	for _, full := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(3, func() { replay(full) }); allocs != 0 {
			t.Errorf("tracked ServeBatch + refresh (full sweep %v) allocated %.1f times per replay, want 0", full, allocs)
		}
	}
	if m.Phase() != 0 || m.Ledger().Total() != 0 {
		t.Fatalf("Reset did not restore the initial state")
	}
}

// TestLayoutEquivalenceAgainstReference replays identical deterministic
// traces through the brute-force Section 4 reference implementation and
// the CSR/interval-based TC on the canonical shapes, asserting equal
// per-round costs, cache contents and phase counts — the flat layout is
// purely a representation change.
func TestLayoutEquivalenceAgainstReference(t *testing.T) {
	shapes := []struct {
		name   string
		t      *tree.Tree
		rounds int // reference cost is exponential in |T|; budget per shape
	}{
		{"star", tree.Star(12), 3000},
		{"path", tree.Path(10), 3000},
		{"binary", tree.CompleteKary(15, 2), 1200},
	}
	for _, sh := range shapes {
		for _, capacity := range []int{2, 5, sh.t.Len()} {
			name := fmt.Sprintf("%s/k=%d", sh.name, capacity)
			t.Run(name, func(t *testing.T) {
				cfg := Config{Alpha: 4, Capacity: capacity}
				rng := rand.New(rand.NewSource(int64(capacity)*1000 + int64(sh.t.Len())))
				input := trace.RandomMixed(rng, sh.t, sh.rounds)
				tc := New(sh.t, cfg)
				ref := NewReference(sh.t, cfg)
				for i, req := range input {
					s1, m1 := tc.Serve(req)
					s2, m2 := ref.Serve(req)
					if s1 != s2 || m1 != m2 {
						t.Fatalf("round %d: TC cost (%d,%d) != reference (%d,%d)", i, s1, m1, s2, m2)
					}
					if tc.Phase() != ref.Phase() {
						t.Fatalf("round %d: TC phase %d != reference %d", i, tc.Phase(), ref.Phase())
					}
					a, b := tc.CacheMembers(), ref.CacheMembers()
					if len(a) != len(b) {
						t.Fatalf("round %d: cache sizes differ: %v vs %v", i, a, b)
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("round %d: caches differ: %v vs %v", i, a, b)
						}
					}
				}
				if tc.Ledger() != ref.Ledger() {
					t.Fatalf("ledgers differ: %+v vs %+v", tc.Ledger(), ref.Ledger())
				}
			})
		}
	}
}
