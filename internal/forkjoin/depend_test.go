package forkjoin

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestTaskDependWriteAfterWrite(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var obj int
	const chainLen = 200
	order := make([]int32, 0, chainLen)
	var mu SpinOrder
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for i := 0; i < chainLen; i++ {
				i := i
				// Every task writes obj: out->out dependences chain
				// them in creation order.
				tc.TaskDepend(Deps{Out: []any{&obj}}, func(*Ctx) {
					mu.Append(&order, int32(i))
				})
			}
			tc.Taskwait()
		})
	})
	if len(order) != chainLen {
		t.Fatalf("ran %d tasks, want %d", len(order), chainLen)
	}
	for i, v := range order {
		if v != int32(i) {
			t.Fatalf("out-dependences violated: position %d ran task %d", i, v)
		}
	}
}

// SpinOrder appends under a tiny spin lock (test helper).
type SpinOrder struct{ flag atomic.Bool }

func (s *SpinOrder) Append(dst *[]int32, v int32) {
	for !s.flag.CompareAndSwap(false, true) {
	}
	*dst = append(*dst, v)
	s.flag.Store(false)
}

func TestTaskDependReadersRunConcurrentlyAfterWriter(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var obj int
	var writerDone atomic.Bool
	var readersAfterWriter atomic.Int64
	var finalAfterReaders atomic.Bool
	var readersDone atomic.Int64
	const readers = 16
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			tc.TaskDepend(Deps{Out: []any{&obj}}, func(*Ctx) {
				writerDone.Store(true)
			})
			for i := 0; i < readers; i++ {
				tc.TaskDepend(Deps{In: []any{&obj}}, func(*Ctx) {
					if writerDone.Load() {
						readersAfterWriter.Add(1)
					}
					readersDone.Add(1)
				})
			}
			// A second writer must wait for all readers.
			tc.TaskDepend(Deps{Out: []any{&obj}}, func(*Ctx) {
				finalAfterReaders.Store(readersDone.Load() == readers)
			})
			tc.Taskwait()
		})
	})
	if readersAfterWriter.Load() != readers {
		t.Fatalf("%d/%d readers saw the writer's effect", readersAfterWriter.Load(), readers)
	}
	if !finalAfterReaders.Load() {
		t.Fatal("second writer ran before all readers finished")
	}
}

func TestTaskDependIndependentObjectsUnordered(t *testing.T) {
	// Tasks on disjoint objects have no edges; all must simply run.
	tm := NewTeam(4)
	defer tm.Close()
	const n = 100
	objs := make([]int, n)
	var ran atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for i := 0; i < n; i++ {
				tc.TaskDepend(Deps{Out: []any{&objs[i]}}, func(*Ctx) { ran.Add(1) })
			}
			tc.Taskwait()
		})
	})
	if ran.Load() != n {
		t.Fatalf("ran %d, want %d", ran.Load(), n)
	}
}

// TestTaskDependDiamond checks the classic diamond: A writes, B and C
// read, D writes — D must observe both B and C.
func TestTaskDependDiamond(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	for trial := 0; trial < 50; trial++ {
		var x int
		var a, b, c atomic.Bool
		ok := true
		tm.Parallel(func(tc *Ctx) {
			tc.Master(func() {
				tc.TaskDepend(Deps{Out: []any{&x}}, func(*Ctx) { a.Store(true) })
				tc.TaskDepend(Deps{In: []any{&x}}, func(*Ctx) {
					if !a.Load() {
						ok = false
					}
					b.Store(true)
				})
				tc.TaskDepend(Deps{In: []any{&x}}, func(*Ctx) {
					if !a.Load() {
						ok = false
					}
					c.Store(true)
				})
				tc.TaskDepend(Deps{Out: []any{&x}}, func(*Ctx) {
					if !b.Load() || !c.Load() {
						ok = false
					}
				})
				tc.Taskwait()
			})
		})
		if !ok {
			t.Fatalf("diamond ordering violated on trial %d", trial)
		}
	}
}

// TestTaskDependStencilPipeline drives the dependence engine with a
// 1-D stencil wavefront: cell i depends on cells i-1 and i of the
// previous step (in) and writes cell i (out).
func TestTaskDependStencilPipeline(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	const cells, steps = 16, 8
	// data[i] counts updates; each step must see the previous step's
	// value in both i-1 and i.
	data := make([]int64, cells)
	bad := atomic.Bool{}
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for s := 0; s < steps; s++ {
				s := s
				for i := 0; i < cells; i++ {
					i := i
					in := []any{&data[i]}
					if i > 0 {
						in = append(in, &data[i-1])
					}
					tc.TaskDepend(Deps{In: nil, Out: in}, func(*Ctx) {
						// Using Out for both makes each cell's tasks a
						// chain and couples neighbors stepwise.
						if data[i] != int64(s) {
							bad.Store(true)
						}
						data[i]++
					})
				}
			}
			tc.Taskwait()
		})
	})
	if bad.Load() {
		t.Fatal("stencil step ordering violated")
	}
	for i, v := range data {
		if v != steps {
			t.Fatalf("cell %d updated %d times, want %d", i, v, steps)
		}
	}
}

func TestTaskDependMixedWithPlainTasks(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var dep, plain atomic.Int64
	var x int
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for i := 0; i < 50; i++ {
				tc.TaskDepend(Deps{Out: []any{&x}}, func(*Ctx) { dep.Add(1) })
				tc.Task(func(*Ctx) { plain.Add(1) })
			}
			tc.Taskwait()
		})
	})
	if dep.Load() != 50 || plain.Load() != 50 {
		t.Fatalf("dep=%d plain=%d, want 50/50", dep.Load(), plain.Load())
	}
}

func TestTaskDependRegionEndDrains(t *testing.T) {
	// Without taskwait, the implicit region end must still run the
	// whole chain.
	tm := NewTeam(2)
	defer tm.Close()
	var x int
	var count atomic.Int64
	tm.Parallel(func(tc *Ctx) {
		tc.Master(func() {
			for i := 0; i < 30; i++ {
				tc.TaskDepend(Deps{Out: []any{&x}}, func(*Ctx) { count.Add(1) })
			}
		})
	})
	if count.Load() != 30 {
		t.Fatalf("count = %d, want 30", count.Load())
	}
}

func TestTaskDependPropertyChainAlwaysOrdered(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	check := func(n8 uint8) bool {
		n := int(n8%40) + 2
		var obj int
		last := int32(-1)
		okFlag := atomic.Bool{}
		okFlag.Store(true)
		tm.Parallel(func(tc *Ctx) {
			tc.Master(func() {
				for i := 0; i < n; i++ {
					i := i
					tc.TaskDepend(Deps{Out: []any{&obj}}, func(*Ctx) {
						if last != int32(i-1) {
							okFlag.Store(false)
						}
						last = int32(i)
					})
				}
				tc.Taskwait()
			})
		})
		return okFlag.Load() && last == int32(n-1)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
