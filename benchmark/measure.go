package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setUp builds one instance of w and runs its discarded warm-up round.
func setUp(w *workload, seed uint64, threads int) (*instance, error) {
	inst, err := w.build(seed, threads)
	if err != nil {
		return nil, err
	}
	for _, s := range inst.series {
		if err := s.warm(); err != nil {
			inst.close()
			return nil, err
		}
	}
	return inst, nil
}

// setUpTimed sets w up n times and keeps the last instance. Each
// earlier one is closed and collected before the next starts, so the
// times are independent and peak RSS holds one instance, not n. It
// returns every set-up's time and the median of the calm ones.
func setUpTimed(w *workload, seed uint64, threads, n int) (*instance, []float64, float64, error) {
	var times, steal []float64
	for i := 0; ; i++ {
		h0 := readHost()
		inst, err := setUp(w, seed, threads)
		if err != nil {
			return nil, nil, 0, err
		}
		h := readHost().since(h0)
		times, steal = append(times, h.wall.Seconds()), append(steal, h.stolen())
		if i == n-1 {
			var kept []float64
			for _, k := range calm(steal) {
				kept = append(kept, times[k])
			}
			return inst, times, median(kept), nil
		}
		inst.close()
		inst = nil
		runtime.GC()
	}
}

// rotation is the order families run in during a round: A B C, then
// B C A, ... so drift and the first-series penalty fall on every
// family equally.
func rotation(round int) [len(families)]int {
	var order [len(families)]int
	for k := range order {
		order[k] = (round + k) % len(families)
	}
	return order
}

// roundSeed derives the seed the three families of a round share.
func roundSeed(seed uint64, round int) uint64 {
	r := rng(seed ^ 0xA5A5A5A5A5A5A5A5 ^ uint64(round+1)<<32)
	return r.next()
}

// measureRounds runs n rounds of about total/n each, every round
// split evenly across the families in rotated order. logFor returns
// the span log of a round, or nil for an untraced round.
func measureRounds(inst *instance, total time.Duration, n int, seed uint64,
	logFor func(round int) *spanLog) [len(families)][]roundSamples {

	var out [len(families)][]roundSamples
	slice := total / time.Duration(n*len(families))
	for r := 0; r < n; r++ {
		for _, f := range rotation(r) {
			s := inst.series[f]
			before, counted := s.counts()
			h0 := readHost()
			rs := s.run(slice, roundSeed(seed, r), logFor(r))
			rs.host = readHost().since(h0)
			if counted {
				after, _ := s.counts()
				rs.sched, rs.hasSched = after.sub(before), true
			}
			out[f] = append(out[f], rs)
		}
	}
	return out
}

// mixP50 is the operation-time median of one or more rounds: the
// median of each operation kind, weighted by the kind's share of the
// mix. A pooled median over kinds of different cost would sit on the
// boundary between two modes and jump between them.
func mixP50(kinds []opKind, rs ...roundSamples) float64 {
	var sum, weight float64
	for k, kind := range kinds {
		if xs := ofKind(k, rs...); len(xs) > 0 {
			sum += kind.share * percentile(xs, 0.5)
			weight += kind.share
		}
	}
	return sum / weight
}

// ofKind pools the samples of operation kind k over rounds.
func ofKind(k int, rs ...roundSamples) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.byKind[k]...)
	}
	return xs
}

func pooled(rs ...roundSamples) []float64 {
	var xs []float64
	for _, r := range rs {
		for _, k := range r.byKind {
			xs = append(xs, k...)
		}
	}
	return xs
}

// famSummary is one family's end-to-end figures over a set of slices.
// The timings and the rate come from the calm slices only; attempts
// and failures are counted over all of them.
type famSummary struct {
	RoundP50US []num    `json:"round_p50_us"` // every slice, calm or not
	RoundP99US []num    `json:"round_p99_us"`
	RoundSteal []num    `json:"round_steal_share"`
	Calm       int      `json:"calm_rounds"`
	P50US      float64  `json:"-"`
	P95US      float64  `json:"-"`
	P99US      num      `json:"op_p99_us"`
	WorkPerS   float64  `json:"-"`
	Samples    int      `json:"samples"` // behind the percentiles
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Good       int      `json:"good"`
	Errors     []string `json:"errors,omitempty"`
	// KindP50US is the pooled median per operation kind, in mix order.
	KindP50US []num `json:"kind_p50_us"`
}

func summarise(w *workload, rs []roundSamples) famSummary {
	var s famSummary
	steal := make([]float64, len(rs))
	for i, r := range rs {
		steal[i] = r.host.stolen()
		s.RoundP50US = append(s.RoundP50US, num(mixP50(w.kinds, r)))
		s.RoundP99US = append(s.RoundP99US, num(percentile(pooled(r), 0.99)))
		s.Attempted += r.attempted
		s.Failed += r.failed
		s.Good += r.good
		s.Errors = append(s.Errors, r.errs...)
	}
	s.RoundSteal = nums(steal)
	var kept []roundSamples
	var span time.Duration
	good := 0
	for _, i := range calm(steal) {
		r := rs[i]
		kept = append(kept, r)
		good += r.good
		if w.rate > 0 {
			span += r.wall
		} else {
			span += r.busy
		}
	}
	s.Calm = len(kept)
	for k := range w.kinds {
		s.KindP50US = append(s.KindP50US, num(percentile(ofKind(k, kept...), 0.5)))
	}
	all := pooled(kept...)
	s.Samples = len(all)
	s.P50US = mixP50(w.kinds, kept...)
	s.P95US = percentile(all, 0.95)
	s.P99US = num(percentile(all, 0.99))
	s.WorkPerS = float64(good) / span.Seconds()
	return s
}

// stealCalm is the share of the machine's CPU time a hypervisor may
// take during a slice before the slice counts as disturbed: a quiet
// guest reads 0-2 %, a neighbour's burst 10-60 % for a few seconds.
const stealCalm = 0.03

// calm returns the indices of the slices (or set-ups) whose timings
// count, given each one's steal share: those at or below stealCalm,
// or, when fewer than half are, the least disturbed half. The signal
// is the host's, not the program's, so a slow program is never
// filtered out; on a machine that reports no steal every slice counts.
func calm(steal []float64) []int {
	cut := stealCalm
	if s := append([]float64(nil), steal...); len(s) > 0 {
		sort.Float64s(s)
		cut = math.Max(cut, s[(len(s)-1)/2])
	}
	var keep []int
	for i, v := range steal {
		if v <= cut {
			keep = append(keep, i)
		}
	}
	return keep
}

// hostTimes is a reading of the clocks outside the program, or the
// difference of two: the machine's steal and total CPU ticks
// (/proc/stat), this process's CPU time, and the wall clock.
type hostTimes struct {
	steal, total int64 // clock ticks, all CPUs
	cpu, wall    time.Duration
}

var processStart = time.Now()

func readHost() hostTimes {
	h := hostTimes{wall: time.Since(processStart)}
	h.steal, h.total = cpuTicks()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil { // cannot fail with these arguments; a zero reading would report 0 % busy
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return h
}

// since returns the interval from an earlier reading to h.
func (h hostTimes) since(h0 hostTimes) hostTimes {
	return hostTimes{h.steal - h0.steal, h.total - h0.total, h.cpu - h0.cpu, h.wall - h0.wall}
}

// stolen is the share of the machine's CPU time the hypervisor took.
func (h hostTimes) stolen() float64 { return float64(h.steal) / float64(max(h.total, 1)) }

// cpuTicks reads the machine-wide steal and total CPU time from the
// first line of /proc/stat, in clock ticks: steal is time a virtual
// CPU was ready to run but the hypervisor ran something else. Without
// the file (or the column) both are 0 and no slice looks disturbed.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i <= 8 { // user nice system idle iowait irq softirq steal; the guest columns after them are already inside user and nice
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
