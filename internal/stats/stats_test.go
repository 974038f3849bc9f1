package stats

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Sample{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{5 * time.Millisecond})
	if s.N != 1 || s.Min != 5*time.Millisecond || s.Max != 5*time.Millisecond ||
		s.Mean != 5*time.Millisecond || s.Median != 5*time.Millisecond || s.Stddev != 0 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	ds := []time.Duration{4, 2, 6, 8} // sorted: 2 4 6 8
	s := Summarize(ds)
	if s.Min != 2 || s.Max != 8 {
		t.Fatalf("min/max wrong: %+v", s)
	}
	if s.Mean != 5 {
		t.Fatalf("mean = %d, want 5", s.Mean)
	}
	if s.Median != 5 { // (4+6)/2
		t.Fatalf("median = %d, want 5", s.Median)
	}
	// Sample stddev of {2,4,6,8}: sqrt(20/3) ~ 2.58
	if s.Stddev < 2 || s.Stddev > 3 {
		t.Fatalf("stddev = %d, want ~2.58", s.Stddev)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]time.Duration{9, 1, 5})
	if s.Median != 5 {
		t.Fatalf("median = %d, want 5", s.Median)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	ds := []time.Duration{3, 1, 2}
	Summarize(ds)
	if ds[0] != 3 || ds[1] != 1 || ds[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeInvariants(t *testing.T) {
	check := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v)
		}
		s := Summarize(ds)
		return s.N == len(ds) &&
			s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10*time.Second, 2*time.Second); got != 5 {
		t.Fatalf("Speedup = %g, want 5", got)
	}
	if got := Speedup(time.Second, 0); got != 0 {
		t.Fatalf("Speedup with zero divisor = %g, want 0", got)
	}
}

func TestPercentileNs(t *testing.T) {
	// 0..100 shuffled: the q-quantile of an arithmetic ramp is exact.
	ns := make([]int64, 101)
	for i := range ns {
		ns[i] = int64((i * 37) % 101) // a permutation of 0..100
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 0}, {0.25, 25}, {0.5, 50}, {0.99, 99}, {1, 100},
		{-1, 0}, {2, 100}, // clamped
	}
	for _, c := range cases {
		if got := PercentileNs(ns, c.q); got != c.want {
			t.Errorf("PercentileNs(ramp, %g) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestPercentileNsInterpolates(t *testing.T) {
	// Two samples: the median is the linear midpoint.
	if got := PercentileNs([]int64{100, 200}, 0.5); got != 150 {
		t.Fatalf("PercentileNs([100 200], 0.5) = %d, want 150", got)
	}
	// p999 of a small sample rides on the max (rank past n-2).
	if got := PercentileNs([]int64{1, 2, 3, 1000}, 0.999); got < 997 {
		t.Fatalf("PercentileNs p999 = %d, want near max", got)
	}
}

func TestPercentileNsEmptyAndSingle(t *testing.T) {
	if got := PercentileNs(nil, 0.5); got != 0 {
		t.Fatalf("PercentileNs(nil) = %d, want 0", got)
	}
	if got := PercentileNs([]int64{42}, 0.99); got != 42 {
		t.Fatalf("PercentileNs(single) = %d, want 42", got)
	}
}

func TestPercentileNsDoesNotMutate(t *testing.T) {
	ns := []int64{5, 1, 4, 2, 3}
	PercentileNs(ns, 0.5)
	want := []int64{5, 1, 4, 2, 3}
	for i := range ns {
		if ns[i] != want[i] {
			t.Fatalf("input mutated: %v", ns)
		}
	}
}
