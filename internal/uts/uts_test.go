package uts

import (
	"testing"
	"testing/quick"

	"threading/internal/models"
)

func TestSeqDeterministic(t *testing.T) {
	p := Small(7)
	a := CountSeq(p)
	b := CountSeq(p)
	if a != b {
		t.Fatalf("counts differ: %d vs %d", a, b)
	}
	if a < 100 {
		t.Fatalf("tree suspiciously small: %d nodes", a)
	}
}

func TestDifferentSeedsDifferentTrees(t *testing.T) {
	a := CountSeq(Small(1))
	b := CountSeq(Small(2))
	if a == b {
		t.Fatalf("seeds 1 and 2 gave identical counts (%d); generator too regular", a)
	}
}

func TestExpectedSizeBallpark(t *testing.T) {
	// Average over seeds should be near the analytic expectation.
	p := Small(0)
	want := expectedSize(p)
	var total int64
	const trees = 30
	for s := uint64(0); s < trees; s++ {
		q := Small(s)
		total += CountSeq(q)
	}
	avg := float64(total) / trees
	if avg < want/2 || avg > want*2 {
		t.Fatalf("average size %.0f not within 2x of expectation %.0f", avg, want)
	}
}

func TestInfiniteTreeRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("M*Q >= 1 not rejected")
		}
	}()
	CountSeq(Params{Seed: 1, RootChildren: 1, M: 4, QNum: 1, QDen: 4})
}

func TestMalformedRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QDen=0 not rejected")
		}
	}()
	CountSeq(Params{Seed: 1, RootChildren: 1, M: 1})
}

func TestParallelMatchesSeqAllTaskModels(t *testing.T) {
	p := Small(42)
	want := CountSeq(p)
	for _, name := range models.TaskNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := models.MustNew(name, 4)
			defer m.Close()
			// Thread-backed models need a sequential floor; pooled
			// models run with spawn-per-node (seqDepth 0 disabled via
			// a deep threshold of 0 means full spawning).
			seqDepth := 0
			if name == models.CPPThread || name == models.CPPAsync {
				seqDepth = 3
			}
			if got := Count(m, p, seqDepth); got != want {
				t.Fatalf("count = %d, want %d", got, want)
			}
		})
	}
}

func TestSeqDepthInvariance(t *testing.T) {
	// The count must not depend on where spawning stops.
	p := Small(9)
	want := CountSeq(p)
	m := models.MustNew(models.CilkSpawn, 4)
	defer m.Close()
	check := func(d8 uint8) bool {
		d := int(d8 % 6)
		return Count(m, p, d) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestTreeIsUnbalanced(t *testing.T) {
	// Verify the defining property: sibling subtrees differ wildly in
	// size (so static partitioning must lose).
	p := Small(11)
	root := mix(p.Seed)
	n := p.numChildren(root, 0)
	minSub, maxSub := int64(1<<62), int64(0)
	for i := 0; i < n; i++ {
		sz := countSub(p, childID(root, i), 1)
		if sz < minSub {
			minSub = sz
		}
		if sz > maxSub {
			maxSub = sz
		}
	}
	if maxSub < 10*minSub {
		t.Fatalf("subtrees too balanced: min %d, max %d", minSub, maxSub)
	}
}

// expectedSize returns the expected node count of the tree p
// describes.
func expectedSize(p Params) float64 {
	q := float64(p.QNum) / float64(p.QDen)
	return 1 + float64(p.RootChildren)/(1-float64(p.M)*q)
}
