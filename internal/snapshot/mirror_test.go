package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// referenceState exports m's full state from scratch: every counter and
// cached flag is reconstructed per node through MutableTC.Counter /
// Cached, never through the incrementally maintained mirror Capture
// encodes from.
func referenceState(m *core.MutableTC) *core.MutableState {
	d := m.Dyn()
	ids := d.NumIDs()
	st := &core.MutableState{
		Parent:      make([]tree.NodeID, ids),
		Live:        make([]bool, ids),
		InSnap:      make([]bool, ids),
		Cnt:         make([]int64, ids),
		Cached:      make([]bool, ids),
		Epoch:       d.Epoch(),
		Pending:     d.Pending(),
		Led:         m.Ledger(),
		Round:       m.Round(),
		PhaseRounds: m.PhaseRounds(),
		Phase:       m.Phase(),
		Peak:        m.MaxCacheLen(),
	}
	for s := 0; s < ids; s++ {
		v := tree.NodeID(s)
		st.Parent[s] = d.Parent(v)
		st.Live[s] = d.Live(v)
		st.InSnap[s] = d.Dense(v) != tree.None
		st.Cnt[s] = m.Counter(v)
		st.Cached[s] = m.Cached(v)
	}
	return st
}

// encodeReference writes st in the v1 format field by field, exactly
// as the format comment in snapshot.go specifies.
func encodeReference(alpha int64, capacity int, rebuildFrac float64, st *core.MutableState) []byte {
	var p []byte
	put := func(v int64) { p = binary.AppendUvarint(p, uint64(v)) }
	put(alpha)
	put(int64(capacity))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(rebuildFrac))
	put(st.Epoch)
	put(int64(st.Pending))
	put(st.Round)
	put(st.PhaseRounds)
	put(st.Phase)
	put(int64(st.Peak))
	put(st.Led.Serve)
	put(st.Led.Move)
	put(st.Led.Fetched)
	put(st.Led.Evicted)
	put(int64(len(st.Live)))
	for s := range st.Live {
		var flags byte
		if st.Live[s] {
			flags |= 1
		}
		if st.InSnap[s] {
			flags |= 2
		}
		if st.Cached[s] {
			flags |= 4
		}
		p = append(p, flags)
		put(int64(st.Parent[s]) + 1)
		if st.Live[s] {
			put(st.Cnt[s])
		}
	}
	out := append([]byte("TCSNAP"), 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(out[6:8], snapshot.Version)
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(p))
	return append(out, p...)
}

// referenceCapture is the capture built from the from-scratch export.
func referenceCapture(m *core.MutableTC) []byte {
	return encodeReference(m.Alpha(), m.Capacity(), m.RebuildFrac(), referenceState(m))
}

// requireReferenceCapture captures m and requires the blob to equal
// the reference capture byte for byte.
func requireReferenceCapture(t *testing.T, label string, m *core.MutableTC) []byte {
	t.Helper()
	blob, err := snapshot.Capture(m)
	if err != nil {
		t.Fatalf("%s: capture: %v", label, err)
	}
	if want := referenceCapture(m); !bytes.Equal(blob, want) {
		t.Fatalf("%s: capture differs from the reference capture (%d vs %d bytes, first difference at byte %d)",
			label, len(blob), len(want), firstDiff(blob, want))
	}
	return blob
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// mirrorShapes are the trees of the differential: flat heavy paths
// (binary, ternary) and segment-tree paths (path, caterpillar spine).
func mirrorShapes() []struct {
	name string
	t    *tree.Tree
} {
	return []struct {
		name string
		t    *tree.Tree
	}{
		{"binary", tree.CompleteKary(255, 2)},
		{"ternary", tree.CompleteKary(364, 3)},
		{"path", tree.Path(120)},
		{"caterpillar", tree.Caterpillar(60, 2)},
	}
}

// TestCaptureMatchesReference drives random and burst traffic, batched
// and per request, interleaved with every topology mutation kind,
// forced rebuilds, phase ends (small capacities), Reset and in-place
// restores, and requires every capture — taken after every message,
// or after every few messages so dirty sets accumulate — to equal the
// reference capture byte for byte.
func TestCaptureMatchesReference(t *testing.T) {
	for _, sh := range mirrorShapes() {
		for _, every := range []int{1, 5} {
			// α = 2 fetches and evicts often; α = 8 lets runs of
			// negative requests be absorbed without any event.
			for _, alpha := range []int64{2, 8} {
				t.Run(fmt.Sprintf("%s/every=%d/alpha=%d", sh.name, every, alpha), func(t *testing.T) {
					runMirrorDifferential(t, sh.t, every, alpha, int64(sh.t.Len()*10+every))
				})
			}
		}
	}
}

func runMirrorDifferential(t *testing.T, tr *tree.Tree, every int, alpha, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := tr.Len()
	cfg := core.MutableConfig{Config: core.Config{Alpha: alpha, Capacity: n / 8}}
	m := core.NewMutable(tr, cfg)
	var blob []byte
	phaseEnds := 0
	for msg := 0; msg < 300; msg++ {
		phase := m.Phase()
		d := m.Dyn()
		live := func() tree.NodeID {
			for {
				if v := tree.NodeID(rng.Intn(d.NumIDs())); d.Live(v) {
					return v
				}
			}
		}
		label := fmt.Sprintf("message %d", msg)
		switch r := rng.Intn(40); {
		case r < 14: // random mixed traffic, batched
			batch := make(trace.Trace, 1+rng.Intn(64))
			for i := range batch {
				batch[i] = trace.Request{Node: live(), Kind: trace.Kind(rng.Intn(2))}
			}
			m.ServeBatch(batch)
		case r < 24: // bursts: runs the batched path coalesces
			var batch trace.Trace
			for len(batch) < 96 {
				req := trace.Request{Node: live(), Kind: trace.Kind(rng.Intn(2))}
				for j := 0; j < 1+rng.Intn(24); j++ {
					batch = append(batch, req)
				}
			}
			m.ServeBatch(batch)
		case r < 28: // per-request serving
			for i := 0; i < 16; i++ {
				m.Serve(trace.Request{Node: live(), Kind: trace.Kind(rng.Intn(2))})
			}
		case r < 31:
			if _, err := m.Insert(live()); err != nil {
				t.Fatalf("%s: insert: %v", label, err)
			}
		case r < 33:
			p := live()
			if kids := liveChildren(d, p); len(kids) > 0 {
				if _, err := m.InsertBetween(p, kids[:1+rng.Intn(len(kids))]); err != nil {
					t.Fatalf("%s: insert-between: %v", label, err)
				}
			}
		case r < 36: // leaf or interior (lifting) withdrawal
			if v := live(); v != 0 {
				if err := m.Delete(v); err != nil {
					t.Fatalf("%s: delete %d: %v", label, v, err)
				}
			}
		case r < 37:
			m.Rebuild()
		case r < 38:
			m.Reset()
		case r < 40:
			if blob != nil {
				if err := snapshot.RestoreInto(m, blob); err != nil {
					t.Fatalf("%s: restore-into: %v", label, err)
				}
			}
		}
		if m.Phase() > phase {
			phaseEnds++
		}
		if msg%every == every-1 {
			blob = requireReferenceCapture(t, label, m)
		}
	}
	if phaseEnds == 0 {
		t.Fatalf("no phase ended; the scenario misses the cleared path")
	}
	// A restored instance starts with a fresh mirror; its captures must
	// match too, before and after further serving.
	fresh, err := snapshot.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	requireReferenceCapture(t, "restored", fresh)
	fresh.ServeBatch(trace.RandomMixed(rng, fresh.Snapshot(), 200))
	requireReferenceCapture(t, "restored then served", fresh)
}

// liveChildren returns the live children of stable node p.
func liveChildren(d *tree.Dyn, p tree.NodeID) []tree.NodeID {
	var out []tree.NodeID
	for s := 0; s < d.NumIDs(); s++ {
		if v := tree.NodeID(s); d.Live(v) && v != 0 && d.Parent(v) == p {
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkSnapshotCapture measures one supervision capture of a
// warmed 131072-node binary instance after a checkpoint interval of
// uniform or skewed traffic (experiments.CaptureBench). Each row sits
// beside a /reference row that captures through the from-scratch
// per-node export instead, so the pair is a same-process comparison.
func BenchmarkSnapshotCapture(b *testing.B) {
	reference := func(m *core.MutableTC) ([]byte, error) { return referenceCapture(m), nil }
	for _, c := range experiments.CaptureBenchCases() {
		sub, _ := strings.CutPrefix(c.Name, "SnapshotCapture/")
		b.Run(sub, func(b *testing.B) { experiments.CaptureBench(b, c, snapshot.Capture) })
		b.Run(sub+"/reference", func(b *testing.B) { experiments.CaptureBench(b, c, reference) })
	}
}
