package forkjoin

import (
	"testing"

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

func TestTeamUntracedHasNoRings(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	for _, m := range tm.members {
		if m.ring != nil {
			t.Fatalf("member %d has a ring without WithTracer", m.id)
		}
	}
}
