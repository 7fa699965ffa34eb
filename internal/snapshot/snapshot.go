// Package snapshot is a versioned, checksummed binary codec for the
// full observable state of a dynamic-topology tree cache
// (core.MutableTC): Capture serializes its full state — stable-id
// topology, per-node counters, cached set, overlay/pending mutations,
// ledger and round/phase/peak cursors — and Restore decodes it into a
// core.MutableState and rebuilds an equivalent live instance without
// trace replay, through the same state-migrating injection pass the
// amortized rebuild uses.
//
// Wire format (all integers little-endian):
//
//	magic   [6]byte  "TCSNAP"
//	version uint16   format version (currently 1)
//	crc32   uint32   IEEE CRC over the payload
//	payload varint-coded fields:
//	        alpha capacity rebuildFrac(float64 bits, 8 bytes) epoch
//	        pending round phaseRounds phase peak
//	        serve move fetched evicted          (ledger; alpha above)
//	        ids, then per stable id:
//	          flags byte (bit0 live, bit1 inSnap, bit2 cached)
//	          parent+1 varint (0 encodes None)
//	          counter varint (live ids only)
//
// Every read is bounds-checked and every integrity failure — bad
// magic, unknown version, truncation, checksum mismatch — is returned
// as an error wrapping ErrFormat or ErrChecksum; corrupted bytes never
// panic. A checksum-valid payload is additionally structurally
// validated by core.RestoreMutable (id-space wiring, live parents,
// downward-closed cached set, capacity) before any state is built.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/tree"
)

// Version is the current snapshot format version. Restore rejects
// snapshots written by a newer (unknown) format.
const Version = 1

const headerLen = 12 // magic(6) + version(2) + crc32(4)

var magic = [6]byte{'T', 'C', 'S', 'N', 'A', 'P'}

var (
	// ErrChecksum reports payload corruption: the stored CRC does not
	// match the payload bytes.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrFormat reports a malformed envelope or payload (bad magic,
	// unsupported version, truncated or overlong data).
	ErrFormat = errors.New("snapshot: malformed")
)

// Capture serializes m's full observable state. It encodes straight
// from the instance's stable-id state mirror (core.MutableTC.Mirror),
// which a capture refreshes in O(nodes changed since the last
// capture), so the cost is one pass over the id space into a single
// output buffer.
func Capture(m *core.MutableTC) ([]byte, error) {
	cnt, cached := m.Mirror()
	d := m.Dyn()
	ids := d.NumIDs()
	led := m.Ledger()
	// Typical ids cost a flags byte, a parent varint and a one-byte
	// counter; append grows the buffer when counters run larger.
	out := make([]byte, headerLen, headerLen+128+ids*(2+uvarintLen(uint64(ids))))
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[6:8], Version)
	out = appendFields(out, m.Alpha(), int64(m.Capacity()))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.RebuildFrac()))
	out = appendFields(out, d.Epoch(), int64(d.Pending()), m.Round(), m.PhaseRounds(), m.Phase(),
		int64(m.MaxCacheLen()), led.Serve, led.Move, led.Fetched, led.Evicted, int64(ids))
	// Equal-length local tables let the loop run without bounds checks.
	parent, live, dense := d.IDs()
	parent, dense = parent[:len(live)], dense[:len(live)]
	cnt, cached = cnt[:len(live)], cached[:len(live)]
	for s, l := range live {
		var flags byte
		if l {
			flags |= 1
		}
		if dense[s] != tree.None {
			flags |= 2
		}
		if cached[s] {
			flags |= 4
		}
		out = append(out, flags)
		out = binary.AppendUvarint(out, uint64(int64(parent[s])+1))
		if l {
			out = binary.AppendUvarint(out, nonneg(cnt[s]))
		}
	}
	binary.LittleEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(out[headerLen:]))
	return out, nil
}

// appendFields appends uvarint-coded header fields.
func appendFields(b []byte, xs ...int64) []byte {
	for _, x := range xs {
		b = binary.AppendUvarint(b, nonneg(x))
	}
	return b
}

// nonneg guards a captured field: the state is non-negative by
// construction, so a negative value is a bug that must not silently
// wrap through uvarint.
func nonneg(x int64) uint64 {
	if x < 0 {
		panic(fmt.Sprintf("snapshot: negative field %d in captured state", x))
	}
	return uint64(x)
}

// uvarintLen returns the encoded length of x.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// Verify checks the envelope and payload checksum without decoding any
// state. It is cheap enough to run on every periodic checkpoint.
func Verify(data []byte) error {
	_, err := payload(data)
	return err
}

// payload validates the envelope and returns the checksummed payload.
func payload(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrFormat, len(data), headerLen)
	}
	if [6]byte(data[:6]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v != Version {
		return nil, fmt.Errorf("%w: unsupported format version %d (have %d)", ErrFormat, v, Version)
	}
	p := data[headerLen:]
	if want, got := binary.LittleEndian.Uint32(data[8:12]), crc32.ChecksumIEEE(p); want != got {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, want, got)
	}
	return p, nil
}

// reader is a bounds-checked payload cursor: the first failed read
// latches an error and every later read is a no-op, so decode logic
// can stay linear and check once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
	}
}

func (r *reader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated %s at offset %d", field, r.off)
		return 0
	}
	r.off += n
	return v
}

// nonneg reads a uvarint that must fit a non-negative int64.
func (r *reader) nonneg(field string) int64 {
	v := r.uvarint(field)
	if v > math.MaxInt64 {
		r.fail("%s overflows int64", field)
		return 0
	}
	return int64(v)
}

func (r *reader) byte(field string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated %s at offset %d", field, r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) float64(field string) float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated %s at offset %d", field, r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// decode parses a verified payload into configuration and state.
func decode(p []byte) (core.MutableConfig, *core.MutableState, error) {
	r := &reader{b: p}
	var cfg core.MutableConfig
	cfg.Alpha = r.nonneg("alpha")
	cfg.Capacity = int(r.nonneg("capacity"))
	cfg.RebuildFrac = r.float64("rebuildFrac")
	st := &core.MutableState{
		Led: cache.Ledger{Alpha: cfg.Alpha},
	}
	st.Epoch = r.nonneg("epoch")
	st.Pending = int(r.nonneg("pending"))
	st.Round = r.nonneg("round")
	st.PhaseRounds = r.nonneg("phaseRounds")
	st.Phase = r.nonneg("phase")
	st.Peak = int(r.nonneg("peak"))
	st.Led.Serve = r.nonneg("serve")
	st.Led.Move = r.nonneg("move")
	st.Led.Fetched = r.nonneg("fetched")
	st.Led.Evicted = r.nonneg("evicted")
	ids := r.nonneg("ids")
	if r.err != nil {
		return cfg, nil, r.err
	}
	// Each id costs at least two payload bytes (flags + parent), which
	// bounds the allocation a crafted-but-checksummed count can force.
	if ids < 1 || ids > int64(len(p)) {
		return cfg, nil, fmt.Errorf("%w: id count %d inconsistent with payload size %d", ErrFormat, ids, len(p))
	}
	st.Parent = make([]tree.NodeID, ids)
	st.Live = make([]bool, ids)
	st.InSnap = make([]bool, ids)
	st.Cnt = make([]int64, ids)
	st.Cached = make([]bool, ids)
	for s := int64(0); s < ids; s++ {
		flags := r.byte("flags")
		if flags > 7 {
			r.fail("unknown flag bits %08b on id %d", flags, s)
		}
		st.Live[s] = flags&1 != 0
		st.InSnap[s] = flags&2 != 0
		st.Cached[s] = flags&4 != 0
		parent := r.nonneg("parent")
		if parent > ids {
			r.fail("parent %d of id %d out of range", parent-1, s)
		}
		st.Parent[s] = tree.NodeID(parent - 1)
		if st.Live[s] {
			st.Cnt[s] = r.nonneg("counter")
		}
		if r.err != nil {
			return cfg, nil, r.err
		}
	}
	if r.off != len(p) {
		return cfg, nil, fmt.Errorf("%w: %d trailing bytes after state", ErrFormat, len(p)-r.off)
	}
	return cfg, st, nil
}

// Restore reconstructs a live instance from a snapshot, with the
// configuration (alpha, capacity, rebuild fraction) the capture
// recorded and no observer attached. Corrupted or inconsistent bytes
// return an error; Restore never panics on input data.
func Restore(data []byte) (*core.MutableTC, error) {
	p, err := payload(data)
	if err != nil {
		return nil, err
	}
	cfg, st, err := decode(p)
	if err != nil {
		return nil, err
	}
	return core.RestoreMutable(cfg, st)
}

// RestoreInto replaces m's state in place with a captured snapshot,
// keeping m's configuration and attached observer. The snapshot's
// alpha and capacity must match m's; m is untouched on any error.
func RestoreInto(m *core.MutableTC, data []byte) error {
	p, err := payload(data)
	if err != nil {
		return err
	}
	cfg, st, err := decode(p)
	if err != nil {
		return err
	}
	if cfg.Alpha != m.Alpha() || cfg.Capacity != m.Capacity() {
		return fmt.Errorf("snapshot: configuration mismatch: snapshot has alpha=%d capacity=%d, instance has alpha=%d capacity=%d",
			cfg.Alpha, cfg.Capacity, m.Alpha(), m.Capacity())
	}
	return m.ImportState(st)
}

// Checkpointed adapts a core.MutableTC to the engine's optional
// Checkpointer surface: Snapshot captures the full observable state
// through the codec, Restore rebuilds it in place (atomic on error)
// and VerifySnapshot integrity-checks a blob without decoding state —
// the engine runs it on every periodic checkpoint so fault-corrupted
// bytes are rejected at capture time, while the previous good
// checkpoint and its journal stay in force.
type Checkpointed struct{ *core.MutableTC }

// Snapshot captures the instance's state as a self-describing blob.
func (c Checkpointed) Snapshot() ([]byte, error) { return Capture(c.MutableTC) }

// Restore replaces the instance's state from a blob, in place.
func (c Checkpointed) Restore(data []byte) error { return RestoreInto(c.MutableTC, data) }

// VerifySnapshot checks a blob's integrity without decoding state.
func (c Checkpointed) VerifySnapshot(data []byte) error { return Verify(data) }
