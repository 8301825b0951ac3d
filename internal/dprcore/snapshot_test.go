package dprcore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// snapLoop builds a loop with some efferent structure, feeds it chunks,
// and runs a few iterations so every snapshot table is non-trivial.
func snapLoop(t testing.TB, sender Sender) *Loop {
	t.Helper()
	eff := map[int32][]EffEntry{1: {{LocalSrc: 0, DstLocal: 0, Links: 1}}}
	l, err := NewLoop(testGroup(t, 0, eff), testParams(), testMeanWait, sender, constRNG{f: 0.5, e: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.Deliver(chunk(1, 0, 3, 0.25))
	l.Deliver(chunk(2, 0, 7, 0.5, 0.125))
	for i := 0; i < 3; i++ {
		l.ComputePhase()
		l.CommitPhase()
	}
	return l
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	l := snapLoop(t, &recordSender{})
	snap := l.Snapshot()

	restored, err := NewLoop(l.Group(), testParams(), testMeanWait, &recordSender{}, constRNG{f: 0.5, e: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Loops() != l.Loops() {
		t.Fatalf("loops = %d, want %d", restored.Loops(), l.Loops())
	}
	for i, v := range l.Ranks() {
		if restored.Ranks()[i] != v {
			t.Fatalf("r[%d] = %v, want %v", i, restored.Ranks()[i], v)
		}
	}
	// Byte equality of snapshots means state equality: the restored
	// loop must re-encode to the identical bytes.
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Fatal("restored loop snapshots differently")
	}
}

func TestSnapshotDeterministicEncoding(t *testing.T) {
	a := snapLoop(t, &recordSender{}).Snapshot()
	b := snapLoop(t, &recordSender{}).Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("identical loops encode different snapshots")
	}
}

func TestEncodeRankSnapshotRoundtrip(t *testing.T) {
	ranks := []float64{0.5, 0.25, 0.125, 0.0625}
	enc := EncodeRankSnapshot(nil, 7, 42, ranks)
	group, round, got, err := DecodeSnapshotRanks(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if group != 7 || round != 42 {
		t.Fatalf("header = (%d, %d), want (7, 42)", group, round)
	}
	if len(got) != len(ranks) {
		t.Fatalf("decoded %d ranks, want %d", len(got), len(ranks))
	}
	for i, v := range ranks {
		if got[i] != v {
			t.Fatalf("r[%d] = %v, want %v", i, got[i], v)
		}
	}
	// A bare rank snapshot must decode through the same reader a real
	// loop snapshot does — scratch reuse appends into dst[:0].
	scratch := make([]float64, 2, 8)
	_, _, got2, err := DecodeSnapshotRanks(enc, scratch[:0])
	if err != nil || len(got2) != len(ranks) {
		t.Fatalf("scratch decode: len %d err %v", len(got2), err)
	}
}

func TestDecodeSnapshotRanksFromLoopSnapshot(t *testing.T) {
	l := snapLoop(t, &recordSender{})
	snap := l.Snapshot()
	group, round, r, err := DecodeSnapshotRanks(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if group != l.Group().Index || round != l.Loops() {
		t.Fatalf("header = (%d, %d), want (%d, %d)", group, round, l.Group().Index, l.Loops())
	}
	for i, v := range l.Ranks() {
		if r[i] != v {
			t.Fatalf("r[%d] = %v, want %v", i, r[i], v)
		}
	}
}

func TestDecodeSnapshotRanksRejectsCorrupt(t *testing.T) {
	enc := EncodeRankSnapshot(nil, 0, 1, []float64{1, 2, 3})
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		enc[:len(enc)-20],                      // truncated rank vector
		append([]byte("DPRS\x02"), enc[5:]...), // bad version
	}
	for i, data := range cases {
		if _, _, _, err := DecodeSnapshotRanks(data, nil); err == nil {
			t.Fatalf("case %d: corrupt snapshot decoded without error", i)
		}
	}
}

func TestSnapshotIncludesPendingChunks(t *testing.T) {
	// A loop whose sender is a ReliableSender snapshots the unacked
	// outbox, and Restore re-sends it through the (new) sender chain.
	inner := &recordSender{}
	rel, err := NewReliableSender(inner, &fakeClock{}, constRNG{f: 0.5}, ReliableConfig{Timeout: 10})
	if err != nil {
		t.Fatal(err)
	}
	l := snapLoop(t, rel)
	if len(rel.PendingChunks(0, nil)) == 0 {
		t.Fatal("fixture produced no pending chunks")
	}
	snap := l.Snapshot()

	inner2 := &recordSender{}
	rel2, err := NewReliableSender(inner2, &fakeClock{}, constRNG{f: 0.5}, ReliableConfig{Timeout: 10})
	if err != nil {
		t.Fatal(err)
	}
	obs := &countObs{}
	p := testParams()
	p.Observer = obs
	restored, err := NewLoop(l.Group(), p, testMeanWait, rel2, constRNG{f: 0.5, e: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(inner2.sends) == 0 || inner2.flushes != 1 {
		t.Fatalf("pending chunks not re-sent on restore: %d sends, %d flushes", len(inner2.sends), inner2.flushes)
	}
	if got := rel2.PendingChunks(0, nil); len(got) != len(rel.PendingChunks(0, nil)) {
		t.Fatalf("reliable layer re-adopted %d pending chunks, want %d", len(got), len(rel.PendingChunks(0, nil)))
	}
	if obs.recovered != 1 {
		t.Fatalf("observer saw %d recoveries, want 1", obs.recovered)
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	l := snapLoop(t, &recordSender{})
	snap := l.Snapshot()
	fresh := func() *Loop {
		loop, err := NewLoop(l.Group(), testParams(), testMeanWait, &recordSender{}, constRNG{f: 0.5, e: 1})
		if err != nil {
			t.Fatal(err)
		}
		return loop
	}
	if err := fresh().Restore([]byte("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if err := fresh().Restore(snap[:len(snap)-1]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	bad := append([]byte(nil), snap...)
	bad[4] = 99 // version byte
	if err := fresh().Restore(bad); err == nil {
		t.Error("unknown version accepted")
	}
	other, err := NewLoop(testGroup(t, 1, nil), testParams(), testMeanWait, &recordSender{}, constRNG{f: 0.5, e: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Error("snapshot for another group accepted")
	}
	// A checkpoint is a file. An X-table chunk the loop could not have
	// accepted would crash the next ComputePhase or squat in the table.
	for name, patch := range xTablePatches {
		if err := fresh().Restore(patch.apply(snap)); !errors.Is(err, ErrBadChunk) {
			t.Errorf("%s: Restore = %v, want ErrBadChunk", name, err)
		}
	}
}

// snapPatch overwrites one little-endian word of a snapLoop snapshot.
type snapPatch struct {
	at  int
	val uint32
}

func (p snapPatch) apply(snap []byte) []byte {
	bad := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(bad[p.at:], p.val)
	return bad
}

// firstXChunk is where a snapLoop snapshot's X table starts: after the
// 21-byte header, two ranks and the table's count. Each chunk opens with
// src, dst, round, links, entry count (28 bytes).
const firstXChunk = 21 + 2*8 + 4

// xTablePatches corrupt the first X-table chunk of a snapLoop snapshot:
// an entry addressing page N or page -1, a source that does not link
// here, and a chunk for another group are all refused.
var xTablePatches = map[string]snapPatch{
	"entry addresses page N":  {firstXChunk + 28, 2},
	"entry addresses page -1": {firstXChunk + 28, 0xffffffff},
	"unknown source group":    {firstXChunk, 9},
	"chunk for another group": {firstXChunk + 4, 1},
}

// FuzzRestoreSnapshot holds the two snapshot decoders to each other on
// arbitrary bytes: neither Loop.Restore nor DecodeSnapshotRanks panics,
// and whenever Restore accepts a snapshot, DecodeSnapshotRanks accepts it
// too and reads the restored loop's group, round and rank vector.
func FuzzRestoreSnapshot(f *testing.F) {
	// A loop snapshot with a filled X table and, through a reliable
	// sender, a pending-chunk table.
	rel, err := NewReliableSender(&recordSender{}, &fakeClock{}, constRNG{f: 0.5}, ReliableConfig{Timeout: 10})
	if err != nil {
		f.Fatal(err)
	}
	l := snapLoop(f, rel)
	if len(rel.PendingChunks(0, nil)) == 0 {
		f.Fatal("fixture produced no pending chunks")
	}
	snap := l.Snapshot()
	f.Add(snap)
	f.Add(EncodeRankSnapshot(nil, 0, 9, []float64{0.5, 0.25}))
	for _, patch := range xTablePatches {
		f.Add(patch.apply(snap))
	}
	grp := l.Group()
	f.Fuzz(func(t *testing.T, data []byte) {
		group, round, ranks, decodeErr := DecodeSnapshotRanks(data, nil)
		loop, err := NewLoop(grp, testParams(), testMeanWait, &recordSender{}, constRNG{f: 0.5, e: 1})
		if err != nil {
			t.Fatal(err)
		}
		if loop.Restore(data) != nil {
			return
		}
		if decodeErr != nil {
			t.Fatalf("Restore accepted a snapshot DecodeSnapshotRanks refuses: %v", decodeErr)
		}
		if group != grp.Index || round != loop.Loops() {
			t.Fatalf("decoded (group %d, round %d), restored (%d, %d)", group, round, grp.Index, loop.Loops())
		}
		if len(ranks) != len(loop.Ranks()) {
			t.Fatalf("decoded %d ranks, restored %d", len(ranks), len(loop.Ranks()))
		}
		for i, v := range loop.Ranks() {
			if math.Float64bits(ranks[i]) != math.Float64bits(v) {
				t.Fatalf("r[%d]: decoded %v, restored %v", i, ranks[i], v)
			}
		}
	})
}

func TestCheckpointCadence(t *testing.T) {
	mem := NewMemCheckpointer()
	p := testParams()
	p.Checkpoint = CheckpointConfig{Every: 2, Sink: mem}
	l, err := NewLoop(testGroup(t, 0, nil), p, testMeanWait, &recordSender{}, constRNG{f: 0.5, e: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.ComputePhase()
	l.CommitPhase() // loop 1: no checkpoint
	if _, _, ok := mem.Load(0); ok {
		t.Fatal("checkpointed off cadence")
	}
	l.ComputePhase()
	l.CommitPhase() // loop 2: checkpoint
	data, round, ok := mem.Load(0)
	if !ok || round != 2 {
		t.Fatalf("checkpoint at round %d (ok=%v), want 2", round, ok)
	}
	restored, err := NewLoop(l.Group(), testParams(), testMeanWait, &recordSender{}, constRNG{f: 0.5, e: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if restored.Loops() != 2 {
		t.Fatalf("restored loops = %d, want 2", restored.Loops())
	}
}
