package models

import (
	"context"
	"sync/atomic"
	"testing"

	"threading/internal/tracez"
)

// TestWithTracerReachesEveryModel verifies the tracer option is
// actually plumbed into each model's runtime: running a loop under any
// of the six models must leave events in the tracer.
func TestWithTracerReachesEveryModel(t *testing.T) {
	for _, name := range DataNames() {
		t.Run(name, func(t *testing.T) {
			tr := tracez.New(1 << 12)
			m := MustNew(name, 2, WithTracer(tr))
			defer m.Close()
			var total atomic.Int64
			Must(m.ParallelForCtx(context.Background(), 256, func(lo, hi int) {
				// Touch the range so chunk bodies are not optimized away.
				total.Add(int64(hi - lo))
			}))
			snap := tr.Snapshot()
			events := 0
			for _, wt := range snap.Workers {
				events += len(wt.Events)
			}
			if events == 0 {
				t.Fatalf("%s recorded no trace events", name)
			}
		})
	}
}

// TestWithTracerTaskModels verifies recursive task runs reach the
// trace too (the cpp models route them through the overflow ring).
func TestWithTracerTaskModels(t *testing.T) {
	for _, name := range TaskNames() {
		t.Run(name, func(t *testing.T) {
			tr := tracez.New(1 << 12)
			m := MustNew(name, 2, WithTracer(tr))
			defer m.Close()
			Must(m.TaskRunCtx(context.Background(), func(s TaskScope) {
				for i := 0; i < 4; i++ {
					s.Spawn(func(TaskScope) {})
				}
				s.Sync()
			}))
			snap := tr.Snapshot()
			events := 0
			for _, wt := range snap.Workers {
				events += len(wt.Events)
			}
			if events == 0 {
				t.Fatalf("%s recorded no trace events for a task run", name)
			}
		})
	}
}

// TestWithoutTracerStillWorks pins the disabled path: models built
// without WithTracer must run normally (nil rings, no events).
func TestWithoutTracerStillWorks(t *testing.T) {
	for _, name := range DataNames() {
		m := MustNew(name, 2)
		Must(m.ParallelForCtx(context.Background(), 64, func(int, int) {}))
		m.Close()
	}
}
