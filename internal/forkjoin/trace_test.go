package forkjoin

import (
	"testing"
	"time"

	"threading/internal/sched"
	"threading/internal/tracez"
)

func TestTeamTracingRecordsEvents(t *testing.T) {
	tr := tracez.New(1 << 12)
	tm := NewTeam(2, WithTracer(tr))

	tm.Parallel(func(tc *Ctx) {
		tc.ForRange(Dynamic(16), 0, 256, func(int, int) {})
	})
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for i := 0; i < 8; i++ {
				tc.Task(func(*Ctx) {})
			}
			tc.Taskwait()
		})
	})
	// Parallel can return while member 1 is still recording its
	// region-end events; Close waits for every member to exit, which
	// orders all of them before the snapshot.
	tm.Close()

	counts := map[tracez.Kind]int{}
	var covered int64
	for _, wt := range tr.Snapshot().Workers {
		for _, e := range wt.Events {
			counts[e.Kind]++
			if e.Kind == tracez.KindChunkStart {
				covered += e.A2 - e.A1
			}
		}
	}
	if counts[tracez.KindChunkStart] == 0 || counts[tracez.KindChunkStart] != counts[tracez.KindChunkEnd] {
		t.Fatalf("chunk spans unbalanced: %d starts, %d ends",
			counts[tracez.KindChunkStart], counts[tracez.KindChunkEnd])
	}
	if covered != 256 {
		t.Fatalf("chunk events cover %d iterations, want 256", covered)
	}
	if counts[tracez.KindSpawn] != 8 {
		t.Fatalf("spawn events = %d, want 8", counts[tracez.KindSpawn])
	}
	if counts[tracez.KindTaskStart] != 8 || counts[tracez.KindTaskEnd] != 8 {
		t.Fatalf("task spans = %d/%d, want 8/8",
			counts[tracez.KindTaskStart], counts[tracez.KindTaskEnd])
	}
	if counts[tracez.KindBarrierStart] == 0 || counts[tracez.KindBarrierStart] != counts[tracez.KindBarrierEnd] {
		t.Fatalf("barrier spans unbalanced: %d starts, %d ends",
			counts[tracez.KindBarrierStart], counts[tracez.KindBarrierEnd])
	}
	if counts[tracez.KindPark] != counts[tracez.KindUnpark] {
		t.Fatalf("park spans unbalanced: %d parks, %d unparks",
			counts[tracez.KindPark], counts[tracez.KindUnpark])
	}
}

// A team left idle for longer than sched.IdleSpin between two regions
// parks each non-master member once in the gap: one KindPark and one
// KindUnpark between its last barrier of the first region and its
// chunk of the second, and the park counter agrees with the trace.
func TestTeamTracingParksBetweenRegions(t *testing.T) {
	const n = 3
	tr := tracez.New(1 << 12)
	tm := NewTeam(n, WithTracer(tr))
	region := func() {
		tm.Parallel(func(tc *Ctx) { tc.ForRange(Static, 0, n, func(int, int) {}) })
	}
	region()
	time.Sleep(20 * sched.IdleSpin)
	region()
	tm.Close()

	var traced int64
	for _, wt := range tr.Snapshot().Workers {
		parks, unparks, chunks := 0, 0, 0
		for _, e := range wt.Events {
			switch e.Kind {
			case tracez.KindPark:
				traced++
				parks++
			case tracez.KindUnpark:
				unparks++
			case tracez.KindBarrierEnd:
				if chunks < 2 {
					parks, unparks = 0, 0
				}
			case tracez.KindChunkStart:
				if chunks++; chunks == 2 && wt.ID != 0 && (parks != 1 || unparks != 1) {
					t.Errorf("member %d: %d parks and %d unparks between the regions, want 1 and 1",
						wt.ID, parks, unparks)
				}
			}
		}
		if chunks != 2 {
			t.Errorf("member %d ran %d chunks, want 2", wt.ID, chunks)
		}
	}
	if got := tm.Stats().Parks; got != traced {
		t.Fatalf("Stats().Parks = %d, trace has %d KindPark events", got, traced)
	}
}

func TestTeamUntracedHasNoRings(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	for _, m := range tm.members {
		if m.ring != nil {
			t.Fatalf("member %d has a ring without WithTracer", m.id)
		}
	}
}
