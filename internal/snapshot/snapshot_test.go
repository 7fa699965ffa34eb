package snapshot_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/tree"
)

// step is one operation of a generated churn stream: a request to a
// live node, an insert under a live parent, or a delete of a live
// non-root node.
type step struct {
	isMut  bool
	insert bool
	node   tree.NodeID
	kind   trace.Kind
}

// shadow mirrors the live topology so the generator only emits valid
// operations (the instances under test validate them again).
type shadow struct {
	live   []bool
	kids   []int
	parent []tree.NodeID
}

func newShadow(t *tree.Tree) *shadow {
	n := t.Len()
	s := &shadow{live: make([]bool, n), kids: make([]int, n), parent: make([]tree.NodeID, n)}
	for v := 0; v < n; v++ {
		s.live[v] = true
		s.kids[v] = t.Degree(tree.NodeID(v))
		s.parent[v] = t.Parent(tree.NodeID(v))
	}
	return s
}

func (s *shadow) pickLive(rng *rand.Rand) tree.NodeID {
	for {
		v := tree.NodeID(rng.Intn(len(s.live)))
		if s.live[v] {
			return v
		}
	}
}

// pickDeletable returns a live non-root leaf, or None when the tree
// has shrunk to the root.
func (s *shadow) pickDeletable(rng *rand.Rand) tree.NodeID {
	for try := 0; try < 4*len(s.live); try++ {
		v := 1 + rng.Intn(len(s.live))
		if v < len(s.live) && s.live[v] && s.kids[v] == 0 {
			return tree.NodeID(v)
		}
	}
	return tree.None
}

func (s *shadow) insert(parent tree.NodeID) {
	s.live = append(s.live, true)
	s.kids = append(s.kids, 0)
	s.parent = append(s.parent, parent)
	s.kids[parent]++
}

func (s *shadow) delete(v tree.NodeID) {
	s.live[v] = false
	s.kids[s.parent[v]]--
}

func buildTree(shape, n int) *tree.Tree {
	switch shape % 4 {
	case 0:
		return tree.Path(n)
	case 1:
		return tree.Star(n)
	case 2:
		return tree.CompleteKary(n, 2)
	default:
		return tree.CompleteKary(n, 3)
	}
}

// genSteps decodes bytes into a valid churn stream: high bytes become
// mutations, the rest requests (sign from bit 7).
func genSteps(data []byte, tr *tree.Tree, seed int64) []step {
	sh := newShadow(tr)
	rng := rand.New(rand.NewSource(seed))
	var steps []step
	for _, b := range data {
		switch {
		case b >= 250:
			p := sh.pickLive(rng)
			sh.insert(p)
			steps = append(steps, step{isMut: true, insert: true, node: p})
		case b >= 240:
			v := sh.pickDeletable(rng)
			if v == tree.None {
				continue
			}
			sh.delete(v)
			steps = append(steps, step{isMut: true, node: v})
		default:
			k := trace.Positive
			if b&0x80 != 0 {
				k = trace.Negative
			}
			steps = append(steps, step{node: sh.pickLive(rng), kind: k})
		}
	}
	return steps
}

func apply(t *testing.T, label string, m *core.MutableTC, st step) (int64, int64) {
	t.Helper()
	if st.isMut {
		if st.insert {
			if _, err := m.Insert(st.node); err != nil {
				t.Fatalf("%s: insert under %d: %v", label, st.node, err)
			}
		} else if err := m.Delete(st.node); err != nil {
			t.Fatalf("%s: delete %d: %v", label, st.node, err)
		}
		return 0, 0
	}
	return m.Serve(trace.Request{Node: st.node, Kind: st.kind})
}

// assertEqualState compares the full observable state of two
// instances: cursors, ledger, id space, per-node counters and cached
// flags, cache membership.
func assertEqualState(t *testing.T, label string, a, b *core.MutableTC) {
	t.Helper()
	if a.Round() != b.Round() || a.Phase() != b.Phase() || a.Epoch() != b.Epoch() || a.Pending() != b.Pending() {
		t.Fatalf("%s: cursors differ: round %d/%d phase %d/%d epoch %d/%d pending %d/%d",
			label, a.Round(), b.Round(), a.Phase(), b.Phase(), a.Epoch(), b.Epoch(), a.Pending(), b.Pending())
	}
	if a.Ledger() != b.Ledger() {
		t.Fatalf("%s: ledgers differ: %+v vs %+v", label, a.Ledger(), b.Ledger())
	}
	if a.CacheLen() != b.CacheLen() || a.MaxCacheLen() != b.MaxCacheLen() {
		t.Fatalf("%s: occupancy differs: len %d/%d peak %d/%d", label, a.CacheLen(), b.CacheLen(), a.MaxCacheLen(), b.MaxCacheLen())
	}
	da, db := a.Dyn(), b.Dyn()
	if da.NumIDs() != db.NumIDs() || da.Len() != db.Len() {
		t.Fatalf("%s: id space differs: ids %d/%d live %d/%d", label, da.NumIDs(), db.NumIDs(), da.Len(), db.Len())
	}
	for s := 0; s < da.NumIDs(); s++ {
		v := tree.NodeID(s)
		if da.Live(v) != db.Live(v) {
			t.Fatalf("%s: liveness of %d differs", label, s)
		}
		if !da.Live(v) {
			continue
		}
		if da.Parent(v) != db.Parent(v) {
			t.Fatalf("%s: parent of %d differs: %d vs %d", label, s, da.Parent(v), db.Parent(v))
		}
		if a.Cached(v) != b.Cached(v) {
			t.Fatalf("%s: cached flag of %d differs", label, s)
		}
		if ca, cb := a.Counter(v), b.Counter(v); ca != cb {
			t.Fatalf("%s: counter of %d differs: %d vs %d", label, s, ca, cb)
		}
	}
	ma, mb := a.CacheMembers(), b.CacheMembers()
	if len(ma) != len(mb) {
		t.Fatalf("%s: cache members differ: %v vs %v", label, ma, mb)
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("%s: cache members differ: %v vs %v", label, ma, mb)
		}
	}
}

// roundTrip runs the scenario: serve a prefix, capture, restore two
// ways (fresh instance and in-place), check state equality, corrupt
// one byte and require a decode error, then serve the identical suffix
// on original and restored instances and require identical behavior.
func roundTrip(t *testing.T, tr *tree.Tree, cfg core.MutableConfig, steps []step, cut int, corruptAt int) {
	t.Helper()
	orig := core.NewMutable(tr, cfg)
	for i, st := range steps[:cut] {
		apply(t, "orig", orig, st)
		requireReferenceCapture(t, fmt.Sprintf("prefix op %d", i), orig)
	}

	blob, err := snapshot.Capture(orig)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if err := snapshot.Verify(blob); err != nil {
		t.Fatalf("verify of fresh capture: %v", err)
	}

	// Any single corrupted byte must surface as an error, never a panic.
	if len(blob) > 0 {
		bad := append([]byte(nil), blob...)
		bad[corruptAt%len(bad)] ^= 0x40
		if err := snapshot.Verify(bad); err == nil {
			t.Fatalf("verify accepted corrupted byte %d", corruptAt%len(bad))
		}
		if _, err := snapshot.Restore(bad); err == nil {
			t.Fatalf("restore accepted corrupted byte %d", corruptAt%len(bad))
		}
		if err := snapshot.RestoreInto(core.NewMutable(tr, cfg), bad); err == nil {
			t.Fatalf("restore-into accepted corrupted byte %d", corruptAt%len(bad))
		}
	}
	for cutLen := 0; cutLen < len(blob); cutLen += 1 + len(blob)/7 {
		if _, err := snapshot.Restore(blob[:cutLen]); err == nil {
			t.Fatalf("restore accepted truncation to %d bytes", cutLen)
		}
	}

	fresh, err := snapshot.Restore(blob)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	inPlace := core.NewMutable(tr, cfg)
	for _, st := range steps[:cut/2] { // a mid-life instance, then overwritten
		apply(t, "inPlace pre", inPlace, st)
	}
	if err := snapshot.RestoreInto(inPlace, blob); err != nil {
		t.Fatalf("restore-into: %v", err)
	}
	assertEqualState(t, "after restore (fresh)", orig, fresh)
	assertEqualState(t, "after restore (in place)", orig, inPlace)

	for i, st := range steps[cut:] {
		s0, m0 := apply(t, "orig", orig, st)
		s1, m1 := apply(t, "fresh", fresh, st)
		s2, m2 := apply(t, "inPlace", inPlace, st)
		if s0 != s1 || m0 != m1 || s0 != s2 || m0 != m2 {
			t.Fatalf("suffix op %d %+v: costs diverged: orig (%d,%d) fresh (%d,%d) inPlace (%d,%d)",
				i, st, s0, m0, s1, m1, s2, m2)
		}
		label := fmt.Sprintf("suffix op %d", i)
		requireReferenceCapture(t, label+" (orig)", orig)
		requireReferenceCapture(t, label+" (fresh)", fresh)
		requireReferenceCapture(t, label+" (in place)", inPlace)
	}
	assertEqualState(t, "after suffix (fresh)", orig, fresh)
	assertEqualState(t, "after suffix (in place)", orig, inPlace)
}

// TestSnapshotRoundTripRandom drives longer random scenarios than the
// fuzz seeds: every tree shape, captures at several cut points
// (including mid-phase and mid-churn) and full suffix equivalence.
func TestSnapshotRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for shape := 0; shape < 4; shape++ {
		for trial := 0; trial < 3; trial++ {
			n := 8 + rng.Intn(40)
			tr := buildTree(shape, n)
			cfg := core.MutableConfig{Config: core.Config{
				Alpha:    int64(2 * (1 + rng.Intn(3))),
				Capacity: 1 + rng.Intn(n),
			}}
			data := make([]byte, 300+rng.Intn(300))
			rng.Read(data)
			steps := genSteps(data, tr, int64(shape*100+trial))
			for _, frac := range []float64{0.1, 0.5, 0.9} {
				cut := int(frac * float64(len(steps)))
				roundTrip(t, tr, cfg, steps, cut, rng.Intn(1<<20))
			}
		}
	}
}

// TestSnapshotEnvelope exercises the codec's integrity paths directly.
func TestSnapshotEnvelope(t *testing.T) {
	tr := tree.CompleteKary(15, 2)
	m := core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 4, Capacity: 5}})
	for i := 0; i < 40; i++ {
		m.Serve(trace.Request{Node: tree.NodeID(i % 15), Kind: trace.Positive})
	}
	blob, err := snapshot.Capture(m)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := snapshot.Restore(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
	if _, err := snapshot.Restore(blob[:5]); err == nil {
		t.Fatal("truncated header accepted")
	}
	badMagic := append([]byte(nil), blob...)
	badMagic[0] = 'X'
	if _, err := snapshot.Restore(badMagic); err == nil {
		t.Fatal("bad magic accepted")
	}
	badVer := append([]byte(nil), blob...)
	badVer[6] = 99
	if _, err := snapshot.Restore(badVer); err == nil {
		t.Fatal("unknown version accepted")
	}

	// A trailing byte with a recomputed checksum must still be rejected
	// (the payload parser requires exact consumption).
	trailing := append([]byte(nil), blob...)
	trailing = append(trailing, 0)
	binary.LittleEndian.PutUint32(trailing[8:12], crc32.ChecksumIEEE(trailing[12:]))
	if _, err := snapshot.Restore(trailing); err == nil {
		t.Fatal("trailing payload bytes accepted")
	}

	// Config mismatch on in-place restore.
	other := core.NewMutable(tr, core.MutableConfig{Config: core.Config{Alpha: 6, Capacity: 5}})
	if err := snapshot.RestoreInto(other, blob); err == nil {
		t.Fatal("alpha mismatch accepted")
	}

	// The Checkpointed adapter round-trips through the same codec.
	ck := snapshot.Checkpointed{MutableTC: m}
	data, err := ck.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.VerifySnapshot(data); err != nil {
		t.Fatal(err)
	}
	if err := ck.Restore(data); err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotRoundTrip pins Restore(Capture(x)) ≡ x on the full
// observable state — counters, cached set, ledger, phase, epoch,
// pending overlay — for arbitrary churn prefixes (mid-phase and
// mid-churn captures included), that corrupted or truncated bytes
// fail with an error, never a panic, and that after every operation
// each instance's capture equals the reference capture built from a
// from-scratch per-node export. Run with
//
//	go test -fuzz FuzzSnapshotRoundTrip ./internal/snapshot
//
// for continuous fuzzing; plain `go test` executes the seed corpus.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{7, 0, 2, 9, 1, 2, 3, 240, 5, 6, 250, 8, 9, 100, 200})
	f.Add([]byte{12, 1, 4, 30, 200, 199, 244, 0, 1, 2, 3, 255, 16, 254, 17})
	f.Add([]byte{5, 2, 2, 200, 0, 0, 0, 128, 241, 128, 128, 245, 130, 7})
	f.Add([]byte{16, 3, 6, 77, 255, 254, 1, 2, 250, 3, 249, 248, 7, 251, 252, 130, 131})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		n := 2 + int(data[0])%14
		tr := buildTree(int(data[1]), n)
		cfg := core.MutableConfig{Config: core.Config{
			Alpha:    int64(2 * (1 + int(data[2])%3)),
			Capacity: 1 + int(data[2]/4)%n,
		}}
		steps := genSteps(data[4:], tr, int64(n))
		cut := 0
		if len(steps) > 0 {
			cut = int(data[3]) % (len(steps) + 1)
		}
		roundTrip(t, tr, cfg, steps, cut, int(data[0])+int(data[3]))
	})
}
