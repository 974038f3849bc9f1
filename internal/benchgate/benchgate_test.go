package benchgate

import "testing"

func TestFind(t *testing.T) {
	k := Key{Kernel: "axpy", Model: "cilk_for", Threads: 2, Grain: 64, Partitioner: "eager"}
	rep := &Report{}
	rep.Add(Series{Key: Key{Kernel: "axpy", Model: "omp_for", Threads: 2, Partitioner: "-"}, SampleNs: []int64{100}})
	rep.Add(Series{Key: k, SampleNs: []int64{200}})
	if s := rep.Find(k); s == nil || s.SampleNs[0] != 200 {
		t.Errorf("Find(%v) = %v", k, s)
	}
	pinned := k
	pinned.Pinned = true
	if s := rep.Find(pinned); s != nil {
		t.Errorf("Find(pinned twin) = %v, want nil: keys match exactly", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]int64{5, 1, 4, 2, 3})
	if s.N != 5 || s.MinNs != 1 || s.MedianNs != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.CILoNs != 1 || s.CIHiNs != 5 {
		// n=5 cannot reach 95% coverage: full range.
		t.Errorf("CI = [%d, %d], want [1, 5]", s.CILoNs, s.CIHiNs)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("Summarize(nil) = %+v", z)
	}
}

// timingClaim is a whole-run timing invariant at the default bound.
var timingClaim = Invariant{Name: "claim"}

func classifyT(t *testing.T, inv Invariant, fast, slow []int64) InvariantResult {
	t.Helper()
	r, err := classify(inv, fast, slow)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestClassifyClearRegression(t *testing.T) {
	slow := []int64{100, 101, 102, 103, 104, 105, 106, 107}
	fast := []int64{150, 151, 152, 153, 154, 155, 156, 157}
	r := classifyT(t, timingClaim, fast, slow)
	if r.Holds {
		t.Errorf("claimed-faster side 1.5x slower still holds (p=%v ratio=%v)", r.P, r.MinRatio)
	}
	if r.MinRatio < 1.4 || r.MedianRatio < 1.4 {
		t.Errorf("ratios = %v/%v, want ~1.5", r.MinRatio, r.MedianRatio)
	}
}

func TestClassifyClearWin(t *testing.T) {
	slow := []int64{150, 151, 152, 153, 154, 155, 156, 157}
	fast := []int64{100, 101, 102, 103, 104, 105, 106, 107}
	if r := classifyT(t, timingClaim, fast, slow); !r.Holds {
		t.Errorf("clear win violated (p=%v ratio=%v)", r.P, r.MinRatio)
	}
}

func TestClassifyPureNoise(t *testing.T) {
	// Interleaved draws from the same spread: the U test must not
	// reject, whatever the effect bound says.
	a := []int64{100, 104, 101, 107, 102, 106, 103, 105}
	b := []int64{103, 100, 106, 102, 107, 101, 105, 104}
	r := classifyT(t, Invariant{Name: "tight", Ratio: 1.001}, a, b)
	if !r.Holds || r.P < timingAlpha {
		t.Errorf("noise violated (p=%v)", r.P)
	}
}

func TestClassifySignificantButTinyEffectStaysUnchanged(t *testing.T) {
	// Fully separated (p = 2/C(16,8) ~ 0.00016) but only 2% slower:
	// the effect bound must hold the verdict.
	slow := []int64{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}
	fast := []int64{1020, 1021, 1022, 1023, 1024, 1025, 1026, 1027}
	r := classifyT(t, timingClaim, fast, slow)
	if r.P >= timingAlpha {
		t.Fatalf("setup broken: p = %v, want significant", r.P)
	}
	if !r.Holds {
		t.Error("2% shift violated the default bound")
	}
	// A claim with a tighter bound of its own flips it.
	if r := classifyT(t, Invariant{Name: "tight", Ratio: 1.01}, fast, slow); r.Holds {
		t.Error("2% shift holds against a 1.01 bound")
	}
}

func TestClassifySingleRunOutlierCannotFlip(t *testing.T) {
	// One wild sample on the claimed-faster side (GC pause,
	// preemption): min and U test both keep the claim holding.
	slow := []int64{100, 101, 102, 103, 104, 105, 106, 107}
	noisy := []int64{101, 100, 103, 102, 500, 104, 106, 105}
	if r := classifyT(t, Invariant{Name: "tight", Ratio: 1.01}, noisy, slow); !r.Holds {
		t.Errorf("single outlier violated (p=%v, ratios %v/%v)", r.P, r.MinRatio, r.MedianRatio)
	}
}
