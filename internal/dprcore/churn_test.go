package dprcore

import "testing"

// TestChurnCheckpointsInstallsMemSink: a checkpointed restart gets an
// in-memory sink on the default cadence, an explicit cadence or sink is
// kept, and a cold or warm schedule installs nothing.
func TestChurnCheckpointsInstallsMemSink(t *testing.T) {
	warm := []ChurnEvent{{Ranker: 1, CrashAt: 1, RestartAt: 2, Restart: RestartCheckpoint}}
	var p Params
	mem, err := ChurnCheckpoints(&p, 2, warm)
	if err != nil {
		t.Fatal(err)
	}
	if mem == nil || p.Checkpoint.Sink != mem || p.Checkpoint.Every != 5 {
		t.Fatalf("sink %v (returned %v), every %d; want the returned store, every 5", p.Checkpoint.Sink, mem, p.Checkpoint.Every)
	}
	own := NewMemCheckpointer()
	p = Params{Checkpoint: CheckpointConfig{Every: 2, Sink: own}}
	if mem, err := ChurnCheckpoints(&p, 2, warm); err != nil || mem != own || p.Checkpoint.Every != 2 {
		t.Fatalf("got (%p, %v), every %d; want the caller's sink, every 2", mem, err, p.Checkpoint.Every)
	}
	p = Params{}
	for _, mode := range []RestartMode{RestartCold, RestartWarm} {
		noLoad := []ChurnEvent{{Ranker: 1, CrashAt: 1, RestartAt: 2, Restart: mode}}
		if mem, err := ChurnCheckpoints(&p, 2, noLoad); err != nil || mem != nil || p.Checkpoint != (CheckpointConfig{}) {
			t.Fatalf("mode %d schedule: got (%v, %v), checkpoint %+v; want nothing installed", mode, mem, err, p.Checkpoint)
		}
	}
}
