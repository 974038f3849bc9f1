package forkjoin

import (
	"sync/atomic"

	"threading/internal/sched"
)

// ScheduleKind names a work-sharing loop schedule, mirroring OpenMP's
// schedule clause.
type ScheduleKind int

const (
	// ScheduleStatic divides iterations among members before the loop
	// runs: with Chunk 0, one contiguous block per member; with Chunk
	// k, chunks of k iterations dealt round-robin. Hand-out is O(1)
	// and contention-free — the property that makes work-sharing win
	// on flat data-parallel loops in the paper.
	ScheduleStatic ScheduleKind = iota
	// ScheduleDynamic hands out chunks of Chunk iterations (default 1)
	// nonmonotonically: each member starts on its own contiguous block,
	// and idle members steal half of a busy member's remaining chunks;
	// chunk order across members is unspecified, as OpenMP 5.0 allows.
	ScheduleDynamic
	// ScheduleGuided hands out exponentially shrinking chunks, never
	// smaller than Chunk (default 1).
	ScheduleGuided
)

// String returns the OpenMP-style name of the schedule kind.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return "unknown"
	}
}

// Schedule pairs a schedule kind with its chunk parameter.
type Schedule struct {
	Kind  ScheduleKind
	Chunk int
}

// Static is the default schedule: one contiguous block per member.
var Static = Schedule{Kind: ScheduleStatic}

// Dynamic returns a dynamic schedule with the given chunk size.
func Dynamic(chunk int) Schedule { return Schedule{Kind: ScheduleDynamic, Chunk: chunk} }

// Guided returns a guided schedule with the given minimum chunk size.
func Guided(chunk int) Schedule { return Schedule{Kind: ScheduleGuided, Chunk: chunk} }

// loopDesc is the shared state of one work-sharing loop instance.
type loopDesc struct {
	next   atomic.Int64 // guided, Sections: next unclaimed iteration
	hi     int64
	slots  []memberSlot // one per member
	result float64      // combined reduction result

	// Dynamic schedule: total chunks of chunk iterations from lo,
	// claimed unit chunks at a time (see claimUnit).
	lo, chunk   int
	total, unit uint64
}

// memberSlot is one member's part of a loop descriptor, on a cache
// line of its own: its reduction partial and, under the dynamic
// schedule, the claim units it has not claimed yet, packed by
// packRange.
type memberSlot struct {
	partial float64
	units   atomic.Uint64
	_       [sched.CacheLine - 16]byte
}

// getLoop returns the shared descriptor for the seq-th work-sharing
// construct of the region, creating it on first arrival; under the
// dynamic schedule that first arrival also deals every member its
// block.
func (r *region) getLoop(seq int, team *Team, s Schedule, lo, hi int) *loopDesc {
	r.mu.Lock()
	d, ok := r.loops[seq]
	if !ok {
		d = &loopDesc{hi: int64(hi), slots: make([]memberSlot, team.n)}
		d.next.Store(int64(lo))
		if s.Kind == ScheduleDynamic {
			d.deal(lo, hi, s.Chunk)
		}
		r.loops[seq] = d
	}
	r.mu.Unlock()
	return d
}

// singleDesc is the shared state of one single construct.
type singleDesc struct {
	claimed atomic.Bool
}

// getSingle returns the shared descriptor for the seq-th single
// construct of the region.
func (r *region) getSingle(seq int) *singleDesc {
	r.mu.Lock()
	d, ok := r.singles[seq]
	if !ok {
		d = &singleDesc{}
		r.singles[seq] = d
	}
	r.mu.Unlock()
	return d
}

// forStatic runs the member's share of [lo,hi) under a static
// schedule and reports each chunk to body.
func forStatic(id, nMembers, lo, hi, chunk int, body func(l, h int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		// Block distribution: sizes differ by at most one.
		base := n / nMembers
		rem := n % nMembers
		start := lo + id*base + min(id, rem)
		size := base
		if id < rem {
			size++
		}
		if size > 0 {
			body(start, start+size)
		}
		return
	}
	for start := lo + id*chunk; start < hi; start += nMembers * chunk {
		end := start + chunk
		if end > hi {
			end = hi
		}
		body(start, end)
	}
}

// maxUnits is the most claim units a packed range can address: both
// of its ends are 32-bit.
const maxUnits = 1<<32 - 1

// claimUnit returns how many chunks one claim takes, k, and how many
// claims cover total chunks. k is 1 unless total exceeds maxUnits;
// then it is the smallest k that brings the claim count under it. The
// body still runs once per chunk, so chunk sizes and counts stay
// exact at any loop length.
func claimUnit(total uint64) (k, units uint64) {
	k = max((total+maxUnits-1)/maxUnits, 1)
	return k, (total + k - 1) / k
}

// packRange packs the unclaimed claim units [next, end) into one word,
// so that a single CAS both checks and changes a member's range.
func packRange(next, end uint64) uint64 { return next<<32 | end }

// unpackRange is the inverse of packRange.
func unpackRange(v uint64) (next, end uint64) { return v >> 32, v & maxUnits }

// deal splits [lo, hi) into chunks of chunk iterations (at least 1)
// and gives member i the contiguous claim units
// [units*i/n, units*(i+1)/n).
func (d *loopDesc) deal(lo, hi, chunk int) {
	d.lo, d.chunk = lo, max(chunk, 1)
	if hi <= lo {
		return
	}
	d.total = uint64(hi-lo-1)/uint64(d.chunk) + 1
	var units uint64
	d.unit, units = claimUnit(d.total)
	n := uint64(len(d.slots))
	for i := range d.slots {
		d.slots[i].units.Store(packRange(units*uint64(i)/n, units*uint64(i+1)/n))
	}
}

// forDynamic runs the chunks the member claims (see claim) until no
// member has any left or the region is canceled. Each chunk is counted
// and checked for cancellation on its own, whatever the claim unit.
func forDynamic(d *loopDesc, m *member, body func(l, h int)) {
	for {
		u, ok := d.claim(m.id)
		if !ok {
			return
		}
		for c, last := u*d.unit, min((u+1)*d.unit, d.total); c < last; c++ {
			if m.reg.Canceled() {
				return
			}
			l := d.lo + int(c)*d.chunk
			m.st.CountLoopChunk()
			body(l, min(l+d.chunk, int(d.hi)))
		}
	}
}

// claim takes the next claim unit of member id's own range with a CAS
// on the member's own cache line, which other members write only to
// steal. When the range is empty, it steals (see steal) and retries;
// false means a full scan found every member's range empty.
func (d *loopDesc) claim(id int) (uint64, bool) {
	own := &d.slots[id].units
	for {
		v := own.Load()
		if next, end := unpackRange(v); next < end {
			if own.CompareAndSwap(v, packRange(next+1, end)) {
				return next, true
			}
			continue // a thief shortened the range: reread it
		}
		if !d.steal(id) {
			return 0, false
		}
	}
}

// steal scans the other members' ranges, starting after member id,
// moves the tail half of the first non-empty one into member id's own
// empty range, and reports whether it found one.
//
// Every unit is claimed exactly once. At any instant a unit is in
// exactly one of three places: some member's packed range, the hands
// of a thief between its CAS and its Store, or claimed. Each step moves
// units between them atomically. An owner's CAS next -> next+1 claims
// one unit. A thief's CAS end -> end-take removes the tail from the
// victim's range in one step, so the units in flight are held by that
// thief alone, and only it ever runs them. The thief's Store then
// publishes them in its own range, which is empty, and which nobody
// else writes while it is: owners CAS only their own range, and
// thieves only non-empty ones. ABA is harmless. A range word is the
// slot's whole state, and a reinstalled range is unclaimed. So a CAS
// that finds the word it read acts on exactly the unclaimed units it
// computed from, even if they left the slot and came back in between.
// A member returns only after finding its own range empty, and after
// that only it could refill the range, so no unit is stranded; units a
// scan misses in flight are run by their thief.
func (d *loopDesc) steal(id int) bool {
	n := len(d.slots)
	for i := 1; i < n; i++ {
		victim := &d.slots[(id+i)%n].units
		for {
			v := victim.Load()
			next, end := unpackRange(v)
			if next >= end {
				break
			}
			take := (end - next + 1) / 2
			if victim.CompareAndSwap(v, packRange(next, end-take)) {
				d.slots[id].units.Store(packRange(end-take, end))
				return true
			}
		}
	}
	return false
}

// forGuided claims exponentially shrinking chunks: each claim takes
// remaining/(2*members), but never less than minChunk.
func forGuided(d *loopDesc, m *member, minChunk int, body func(l, h int)) {
	if minChunk <= 0 {
		minChunk = 1
	}
	for !m.reg.Canceled() {
		cur := d.next.Load()
		if cur >= d.hi {
			return
		}
		rem := d.hi - cur
		ch := rem / int64(2*m.team.n)
		if ch < int64(minChunk) {
			ch = int64(minChunk)
		}
		if ch > rem {
			ch = rem
		}
		if !d.next.CompareAndSwap(cur, cur+ch) {
			continue
		}
		m.st.CountLoopChunk()
		body(int(cur), int(cur+ch))
	}
}
