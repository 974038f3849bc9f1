package forkjoin

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"threading/internal/sched"
)

// TestDynamicStealStress drives the dynamic schedule's claim-and-steal
// hand-out through thousands of regions on teams of 2, 3 and 4: two
// dynamic loops and one dynamic reduction per region, each over a
// random [lo, hi) and chunk size, with chunk bodies that yield or sleep
// at random so that members run dry at different times and steal.
// Some regions are canceled, and some panic, mid-loop. Every index
// runs exactly once in a clean region and at most once in a failed
// one, a clean region counts exactly ceil(n/chunk) chunks per loop,
// the reduction is exact, the team stays reusable, and Close leaves
// no goroutine behind.
func TestDynamicStealStress(t *testing.T) {
	regions := 2000
	if testing.Short() {
		regions = 200
	}
	base := runtime.NumGoroutine()
	for _, n := range []int{2, 3, 4} {
		tm := NewTeam(n)
		rng := sched.NewRand(uint64(n))
		stolen := 0
		for i := 0; i < regions; i++ {
			var loops [3]*stealLoop
			for k := range loops {
				loops[k] = newStealLoop(rng, n)
			}
			var wantErr string
			switch i % 50 {
			case 7:
				wantErr = "cancel"
				loops[0].trigger = loops[0].lo + rng.Intn(loops[0].n())
			case 17:
				wantErr = "panic"
				loops[1].trigger = loops[1].lo + rng.Intn(loops[1].n())
			}
			before := tm.Stats().LoopChunks
			err := runStealRegion(tm, loops)
			chunks := tm.Stats().LoopChunks - before
			switch wantErr {
			case "cancel":
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("n=%d region %d: err = %v, want context.Canceled", n, i, err)
				}
			case "panic":
				var pe *sched.PanicError
				if !errors.As(err, &pe) || pe.Value != "steal-boom" {
					t.Fatalf("n=%d region %d: err = %v, want the body's panic", n, i, err)
				}
			default:
				if err != nil {
					t.Fatalf("n=%d region %d: %v", n, i, err)
				}
			}
			want := int64(0)
			for k, l := range loops {
				for j := range l.ranBy {
					got := l.hits[j].Load()
					if got > 1 || (err == nil && got != 1) {
						t.Fatalf("n=%d region %d loop %d (lo=%d n=%d chunk=%d): index %d ran %d times",
							n, i, k, l.lo, l.n(), l.chunk, l.lo+j, got)
					}
					if got == 1 && l.ranBy[j].Load()-1 != l.dealtTo(j) {
						stolen++
					}
				}
				want += l.chunks()
				if bad := l.badSums.Load(); err == nil && bad != 0 {
					t.Fatalf("n=%d region %d loop %d: %d members got a wrong reduction", n, i, k, bad)
				}
			}
			if err == nil && chunks != want {
				t.Fatalf("n=%d region %d: %d loop chunks counted, want %d", n, i, chunks, want)
			}
		}
		if stolen == 0 {
			t.Fatalf("n=%d: no chunk ran outside the block it was dealt to in %d regions", n, regions)
		}
		tm.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after Close, %d before NewTeam", g, base)
	}
}

// stealLoop is one loop of the stress test: its range and chunk, the
// per-index run count and member, and the index (if any) at which its
// body cancels the region or panics.
type stealLoop struct {
	lo, chunk, members int
	hits               []atomic.Int32
	ranBy              []atomic.Int32 // executing member id + 1
	trigger            int            // index that cancels or panics; lo-1 for none
	badSums            atomic.Int32
}

// newStealLoop draws a loop for a team of members: lo is zero a
// quarter of the time and otherwise anywhere in [-500, 1500); n is in
// [1, 200); the chunk is 0 (meaning 1), small, or at least n/members
// so that some members are dealt nothing, and rarely divides n.
func newStealLoop(rng *sched.Rand, members int) *stealLoop {
	l := &stealLoop{members: members}
	if rng.Intn(4) != 0 {
		l.lo = rng.Intn(2000) - 500
	}
	n := 1 + rng.Intn(200)
	switch rng.Intn(5) {
	case 0:
		l.chunk = 0
	case 1:
		l.chunk = 1
	case 2:
		l.chunk = 2 + rng.Intn(15)
	case 3:
		l.chunk = 16 + rng.Intn(100)
	case 4:
		l.chunk = n/members + 1 + rng.Intn(n)
	}
	l.hits = make([]atomic.Int32, n)
	l.ranBy = make([]atomic.Int32, n)
	l.trigger = l.lo - 1
	return l
}

func (l *stealLoop) n() int   { return len(l.hits) }
func (l *stealLoop) hi() int  { return l.lo + l.n() }
func (l *stealLoop) sch() int { return max(l.chunk, 1) }

// chunks is the number of chunks the loop must count: ceil(n/chunk).
func (l *stealLoop) chunks() int64 { return int64((l.n() + l.sch() - 1) / l.sch()) }

// dealtTo is the member whose initial block holds index j (relative to
// lo): chunk c is in member i's block when units*i/m <= c <
// units*(i+1)/m.
func (l *stealLoop) dealtTo(j int) int32 {
	c, units, m := j/l.sch(), int(l.chunks()), l.members
	for i := 0; i < m; i++ {
		if c < units*(i+1)/m {
			return int32(i)
		}
	}
	return -1
}

// body marks each index of [lo, hi) as run by tc's member, trips the
// trigger, and yields or sleeps now and then, chosen by a hash of the
// chunk so the pattern differs between chunks and loops.
func (l *stealLoop) body(tc *Ctx, lo, hi int, trip func()) {
	for i := lo; i < hi; i++ {
		l.hits[i-l.lo].Add(1)
		l.ranBy[i-l.lo].Store(int32(tc.ID()) + 1)
		if i == l.trigger {
			trip()
		}
	}
	switch h := uint64(lo)*0x9E3779B97F4A7C15 ^ uint64(l.n()); {
	case h>>55 == 0:
		time.Sleep(20 * time.Microsecond)
	case h>>61 == 0:
		runtime.Gosched()
	}
}

// runStealRegion runs one region over loops: loops[0] as a dynamic
// ForRangeNoWait whose trigger cancels the region, loops[1] as a
// dynamic ForRange whose trigger panics, and loops[2] as a dynamic
// ReduceFloat64 summing its indices, checked on every member.
func runStealRegion(tm *Team, loops [3]*stealLoop) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return tm.ParallelCtx(ctx, func(tc *Ctx) {
		a, b, r := loops[0], loops[1], loops[2]
		tc.ForRangeNoWait(Dynamic(a.chunk), a.lo, a.hi(), func(l, h int) {
			a.body(tc, l, h, cancel)
		})
		tc.ForRange(Dynamic(b.chunk), b.lo, b.hi(), func(l, h int) {
			b.body(tc, l, h, func() { panic("steal-boom") })
		})
		got := tc.ReduceFloat64(Dynamic(r.chunk), r.lo, r.hi(), 0,
			func(l, h int, acc float64) float64 {
				r.body(tc, l, h, func() {})
				for i := l; i < h; i++ {
					acc += float64(i)
				}
				return acc
			}, func(x, y float64) float64 { return x + y })
		lo, hi := float64(r.lo), float64(r.hi())
		if got != (lo+hi-1)*(hi-lo)/2 {
			r.badSums.Add(1)
		}
	})
}

// Member 0's block is slow and member 1's is free, so member 1 runs dry
// at once and must take chunks from member 0's block: the dynamic
// schedule still balances load rather than fixing each member's share
// up front as static does.
func TestDynamicStealsFromSlowMember(t *testing.T) {
	tm := NewTeam(2)
	defer tm.Close()
	const chunks = 64
	// A member goroutine that wakes late (a loaded machine) can find
	// its block already stolen, so allow a few attempts.
	for attempt := 0; attempt < 5; attempt++ {
		var ranBy [chunks]atomic.Int32
		tm.Parallel(func(tc *Ctx) {
			tc.ForRange(Dynamic(1), 0, chunks, func(l, h int) {
				if prev := ranBy[l].Swap(int32(tc.ID()) + 1); prev != 0 {
					panic("chunk ran twice")
				}
				if l < chunks/2 {
					time.Sleep(time.Millisecond)
				}
			})
		})
		helped := 0
		for c := range ranBy {
			if ranBy[c].Load() == 0 {
				t.Fatalf("chunk %d never ran", c)
			}
			if c < chunks/2 && ranBy[c].Load() == 2 {
				helped++
			}
		}
		if helped > 0 {
			t.Logf("attempt %d: member 1 ran %d of member 0's %d chunks", attempt, helped, chunks/2)
			return
		}
	}
	t.Fatal("member 1 never ran a chunk of member 0's block: the dynamic schedule did not balance")
}

// TestClaimUnit checks the claim-unit arithmetic that keeps loops of
// 2^32 or more chunks correct without running one: the claim count
// fits a packed 32-bit range, the claims cover every chunk exactly,
// and the unit is the smallest that fits.
func TestClaimUnit(t *testing.T) {
	for _, total := range []uint64{0, 1, 2, 4096, maxUnits - 1, maxUnits, maxUnits + 1,
		1 << 32, 1<<32 + 1, 2 * maxUnits, 2*maxUnits + 1, 3<<40 + 7, math.MaxInt64} {
		k, units := claimUnit(total)
		switch {
		case k < 1 || units > maxUnits:
			t.Errorf("claimUnit(%d) = %d, %d: claim count does not fit 32 bits", total, k, units)
		case total <= maxUnits && (k != 1 || units != total):
			t.Errorf("claimUnit(%d) = %d, %d, want 1, %d", total, k, units, total)
		case units*k < total || (units > 0 && (units-1)*k >= total):
			t.Errorf("claimUnit(%d) = %d, %d: claims do not cover the chunks exactly", total, k, units)
		case k > 1 && (total+k-2)/(k-1) <= maxUnits:
			t.Errorf("claimUnit(%d) = %d, %d: unit %d would fit", total, k, units, k-1)
		}
		for _, r := range [][2]uint64{{0, units}, {units, units}, {units / 2, units}} {
			if next, end := unpackRange(packRange(r[0], r[1])); next != r[0] || end != r[1] {
				t.Errorf("unpackRange(packRange(%d, %d)) = %d, %d", r[0], r[1], next, end)
			}
		}
	}
}

// A loop of 2^33+5 chunks is dealt in claim units of 3 chunks, in
// contiguous per-member blocks; a member that runs dry takes the tail
// half of the next member's block.
func TestDealLargeLoop(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("needs 64-bit int")
	}
	d := &loopDesc{slots: make([]memberSlot, 3)}
	const total = 1<<33 + 5
	d.deal(-7, -7+total, 0)
	d.hi = -7 + total
	if d.total != total || d.unit != 3 || d.chunk != 1 {
		t.Fatalf("total, unit, chunk = %d, %d, %d, want %d, 3, 1", d.total, d.unit, d.chunk, total)
	}
	units := uint64(total+2) / 3
	prev := uint64(0)
	for i := range d.slots {
		next, end := unpackRange(d.slots[i].units.Load())
		if next != prev || end <= next {
			t.Fatalf("member %d dealt [%d, %d), want a block starting at %d", i, next, end, prev)
		}
		prev = end
	}
	if prev != units {
		t.Fatalf("blocks end at %d, want %d units", prev, units)
	}
	_, end1 := unpackRange(d.slots[1].units.Load())
	next2, end2 := unpackRange(d.slots[2].units.Load())
	d.slots[1].units.Store(packRange(end1, end1)) // member 1 ran dry
	u, ok := d.claim(1)
	take := (end2 - next2 + 1) / 2
	if !ok || u != end2-take {
		t.Fatalf("claim after running dry = %d, %v, want %d stolen from member 2", u, ok, end2-take)
	}
	if n2, e2 := unpackRange(d.slots[2].units.Load()); n2 != next2 || e2 != end2-take {
		t.Fatalf("member 2 left with [%d, %d), want [%d, %d)", n2, e2, next2, end2-take)
	}
	// total = 3*(units-1) + 1, so the last unit holds one chunk.
	if first, last := (units-1)*d.unit, min(units*d.unit, d.total); first != total-1 || last != total {
		t.Fatalf("last unit covers chunks [%d, %d), want [%d, %d)", first, last, total-1, total)
	}
}
