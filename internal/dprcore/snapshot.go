package dprcore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"p2prank/internal/transport"
)

// snapMagic identifies an encoded loop snapshot; snapVersion gates the
// layout so future fields can evolve it.
const (
	snapMagic   = "DPRS"
	snapVersion = 1
)

// Checkpointer persists encoded loop snapshots. Save is called from the
// loop's commit context with a buffer the loop reuses on the next
// cadence, so implementations must copy data if they retain it.
type Checkpointer interface {
	Save(ranker int, round int64, data []byte) error
}

// CheckpointConfig schedules periodic snapshots of a loop's recoverable
// state through Params. The zero value checkpoints nothing.
type CheckpointConfig struct {
	// Every is the round cadence: a snapshot is taken after every Every
	// committed loops (0 disables).
	Every int64
	// Sink receives the snapshots. When a churn event restarts from a
	// checkpoint, both drivers install a *MemCheckpointer here if it
	// is nil, and refuse any other type (see ChurnCheckpoints).
	Sink Checkpointer
}

// Enabled reports whether loops will actually checkpoint.
func (c CheckpointConfig) Enabled() bool { return c.Every > 0 && c.Sink != nil }

// Validate checks the cadence. A positive Every with a nil Sink is
// legal at validation time — runtimes install their sink during build.
func (c CheckpointConfig) Validate() error {
	if c.Every < 0 {
		return fmt.Errorf("dprcore: checkpoint cadence %d negative", c.Every)
	}
	return nil
}

// PendingSource is implemented by senders that track unacknowledged
// chunks (ReliableSender). A loop whose sender implements it includes
// the pending outbox in its snapshots, so a restart retransmits what
// the crash left in flight.
type PendingSource interface {
	PendingChunks(from int, dst []transport.ScoreChunk) []transport.ScoreChunk
}

// Snapshot returns the loop's recoverable state — R, the newest
// afferent chunk per source (the X table), the loop counter, and any
// pending unacked chunks — encoded deterministically: fixed-width
// little-endian fields, chunk tables in ascending group order. Byte
// equality of two snapshots therefore means state equality.
func (l *Loop) Snapshot() []byte { return l.AppendSnapshot(nil) }

// AppendSnapshot appends the loop's encoded snapshot to buf and returns
// the extended slice. Call from commit (serial) context.
func (l *Loop) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.grp.Index))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.loops))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.r)))
	for _, v := range l.r {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	// The X table: the filled slots, already in ascending group order;
	// their count is patched in once they are written.
	at, filled := len(buf), uint32(0)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, c := range l.latest {
		if c.Round != 0 {
			buf = appendChunk(buf, c)
			filled++
		}
	}
	binary.LittleEndian.PutUint32(buf[at:], filled)
	l.snapPending = l.snapPending[:0]
	if l.pending != nil {
		l.snapPending = l.pending.PendingChunks(l.grp.Index, l.snapPending)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.snapPending)))
	for _, c := range l.snapPending {
		buf = appendChunk(buf, c)
	}
	return buf
}

func appendChunk(buf []byte, c transport.ScoreChunk) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.SrcGroup))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.DstGroup))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Round))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Links))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Entries)))
	for _, e := range c.Entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.DstLocal))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Value))
	}
	return buf
}

// EncodeRankSnapshot appends a bare rank vector encoded in the loop
// snapshot format (empty X table, no pending chunks) and returns the
// extended slice. The serving tier's publish seam (internal/serve)
// accepts it interchangeably with real loop snapshots, so ranks that
// never went through a Loop — centralized references, experiment
// fixtures — can flow through the same Checkpointer plumbing.
func EncodeRankSnapshot(buf []byte, group int, round int64, r []float64) []byte {
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(group))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(round))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
	for _, v := range r {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, 0) // latest-chunk table
	buf = binary.LittleEndian.AppendUint32(buf, 0) // pending-chunk table
	return buf
}

// DecodeSnapshotRanks decodes the header and rank vector of an encoded
// loop snapshot without touching the chunk tables — the read side of
// the publish seam. The ranks are appended to dst (pass dst[:0] to
// reuse a scratch buffer).
func DecodeSnapshotRanks(data []byte, dst []float64) (group int, round int64, r []float64, err error) {
	return (&snapReader{data: data}).header(dst)
}

// snapReader walks an encoded snapshot, remembering the first decode
// failure so call sites check once.
type snapReader struct {
	data []byte
	err  error
}

// header reads what every snapshot opens with — magic, version, group,
// round, and the rank vector, appended to dst — leaving the reader at
// the chunk tables.
func (r *snapReader) header(dst []float64) (group int, round int64, ranks []float64, err error) {
	if magic := r.take(len(snapMagic)); r.err != nil || string(magic) != snapMagic {
		return 0, 0, nil, fmt.Errorf("dprcore: not a snapshot")
	}
	if ver := r.take(1); r.err != nil || ver[0] != snapVersion {
		return 0, 0, nil, fmt.Errorf("dprcore: unsupported snapshot version")
	}
	group = int(r.u32())
	round = int64(r.u64())
	n := int(r.u32())
	if r.err == nil && n > len(r.data)/8 {
		r.err = fmt.Errorf("dprcore: snapshot rank length %d exceeds data", n)
	}
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	ranks = dst
	for i := 0; i < n; i++ {
		ranks = append(ranks, math.Float64frombits(r.u64()))
	}
	return group, round, ranks, nil
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data) < n {
		r.err = fmt.Errorf("dprcore: snapshot truncated")
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) chunk() transport.ScoreChunk {
	c := transport.ScoreChunk{
		SrcGroup: int32(r.u32()),
		DstGroup: int32(r.u32()),
		Round:    int64(r.u64()),
		Links:    int64(r.u64()),
	}
	n := int(r.u32())
	if r.err != nil || n > len(r.data)/12 {
		if r.err == nil {
			r.err = fmt.Errorf("dprcore: snapshot chunk entry count %d exceeds data", n)
		}
		return c
	}
	c.Entries = make([]transport.ScoreEntry, 0, n)
	for i := 0; i < n; i++ {
		c.Entries = append(c.Entries, transport.ScoreEntry{
			DstLocal: int32(r.u32()),
			Value:    math.Float64frombits(r.u64()),
		})
	}
	return c
}

// Restore rebuilds the loop's state from an encoded snapshot — the
// crash-recovery path. It restores R, the X table, and the loop
// counter, then re-sends the snapshot's pending chunks through the
// Sender so the reliable layer re-adopts them (receivers that already
// saw those rounds discard them as stale — re-delivery is idempotent).
// X itself is reassembled from the restored table, and from Y-chunks
// that keep arriving, at the next ComputePhase. A snapshot is a file:
// an X-table chunk this loop could not have accepted (see Deliver)
// fails the restore with ErrBadChunk.
//
// Call it on a freshly built Loop for the same Group, from serial
// context, before the next ComputePhase.
func (l *Loop) Restore(data []byte) error {
	r := &snapReader{data: data}
	// R decodes in place: a loop whose restore fails is not used again.
	group, loops, ranks, err := r.header(l.r[:0])
	if err != nil {
		return err
	}
	if group != l.grp.Index {
		return fmt.Errorf("dprcore: ranker %d: snapshot belongs to group %d", l.grp.Index, group)
	}
	if len(ranks) != len(l.r) {
		return fmt.Errorf("dprcore: ranker %d: snapshot rank length %d, want %d", l.grp.Index, len(ranks), len(l.r))
	}
	nLatest := int(r.u32())
	clear(l.latest)
	for i := 0; i < nLatest; i++ {
		c := r.chunk()
		if r.err != nil {
			return r.err
		}
		if int(c.DstGroup) != l.grp.Index {
			return fmt.Errorf("%w: ranker %d: snapshot holds a chunk for group %d", ErrBadChunk, l.grp.Index, c.DstGroup)
		}
		if err := l.Deliver(c); err != nil {
			return err
		}
	}
	nPending := int(r.u32())
	pending := l.snapPending[:0]
	for i := 0; i < nPending && r.err == nil; i++ {
		pending = append(pending, r.chunk())
	}
	l.snapPending = pending
	if r.err != nil {
		return r.err
	}
	l.loops = loops
	for _, c := range pending {
		if err := l.sender.Send(l.grp.Index, c); err != nil {
			return fmt.Errorf("dprcore: ranker %d: resend pending: %w", l.grp.Index, err)
		}
	}
	if len(pending) > 0 {
		if err := l.sender.Flush(l.grp.Index); err != nil {
			return fmt.Errorf("dprcore: ranker %d: flush pending: %w", l.grp.Index, err)
		}
	}
	if l.obs != nil {
		l.obs.Recovered(l.grp.Index, l.loops)
	}
	return nil
}

// MemCheckpointer keeps the newest snapshot per ranker in memory — the
// sink churn restarts load from in both drivers (copy-on-save, so the
// loop's reused buffer never aliases a stored snapshot). It is safe
// for concurrent use: live peers checkpoint from their own goroutines.
type MemCheckpointer struct {
	mu    sync.Mutex
	snaps map[int]memSnap
}

type memSnap struct {
	round int64
	data  []byte
}

// NewMemCheckpointer builds an empty in-memory checkpoint store.
func NewMemCheckpointer() *MemCheckpointer {
	return &MemCheckpointer{snaps: make(map[int]memSnap)}
}

// Save implements Checkpointer.
func (m *MemCheckpointer) Save(ranker int, round int64, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.snaps[ranker] = memSnap{round: round, data: cp}
	m.mu.Unlock()
	return nil
}

// Load returns the ranker's newest snapshot and its round, or ok=false
// if none was saved. The returned slice is the stored copy; callers
// must not mutate it.
func (m *MemCheckpointer) Load(ranker int) (data []byte, round int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[ranker]
	return s.data, s.round, ok
}
