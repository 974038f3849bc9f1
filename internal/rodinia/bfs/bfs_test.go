package bfs

import (
	"testing"
	"testing/quick"

	"threading/internal/models"
)

func TestGenerateValid(t *testing.T) {
	g := Generate(1000, 8, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 1000 {
		t.Fatalf("NumNodes = %d", g.NumNodes)
	}
	if g.NumEdges() < 1000 {
		t.Fatalf("suspiciously few edges: %d", g.NumEdges())
	}
	// Deterministic for a given seed.
	g2 := Generate(1000, 8, 42)
	if g2.NumEdges() != g.NumEdges() || g2.Edges[13] != g.Edges[13] {
		t.Fatal("generator is not deterministic")
	}
}

func TestGenerateDegreeBounds(t *testing.T) {
	check := func(seed uint64, avg8 uint8) bool {
		avg := int(avg8%8) + 1
		g := Generate(200, avg, seed)
		if g.Validate() != nil {
			return false
		}
		for u := int32(0); u < int32(g.NumNodes); u++ {
			d := int(g.Offsets[u+1] - g.Offsets[u])
			if d < 1 || d > 2*avg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSeqChainGraph(t *testing.T) {
	// A pure chain: node i -> i+1 only.
	n := 10
	g := &Graph{NumNodes: n, Offsets: make([]int32, n+1), Edges: make([]int32, n-1)}
	for i := 0; i < n-1; i++ {
		g.Offsets[i+1] = int32(i + 1)
		g.Edges[i] = int32(i + 1)
	}
	g.Offsets[n] = int32(n - 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cost := Seq(g, 0)
	for i := 0; i < n; i++ {
		if cost[i] != int32(i) {
			t.Fatalf("cost[%d] = %d, want %d", i, cost[i], i)
		}
	}
}

func TestSeqUnreachable(t *testing.T) {
	// Two isolated nodes.
	g := &Graph{NumNodes: 2, Offsets: []int32{0, 0, 0}, Edges: nil}
	cost := Seq(g, 0)
	if cost[0] != 0 || cost[1] != Unreached {
		t.Fatalf("cost = %v", cost)
	}
}

func TestParallelMatchesSeq(t *testing.T) {
	g := Generate(20000, 6, 7)
	want := Seq(g, 0)
	for _, name := range models.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := models.MustNew(name, 4)
			defer m.Close()
			got := Parallel(m, g, 0)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d: level %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestParallelAllReachable(t *testing.T) {
	// The chain edge guarantees full reachability from node 0.
	g := Generate(5000, 4, 99)
	m := models.MustNew(models.OMPFor, 2)
	defer m.Close()
	cost := Parallel(m, g, 0)
	for i, c := range cost {
		if c == Unreached {
			t.Fatalf("node %d unreached", i)
		}
	}
}

func TestParallelFromNonzeroSource(t *testing.T) {
	g := Generate(3000, 5, 3)
	src := int32(1500)
	want := Seq(g, src)
	m := models.MustNew(models.CilkFor, 4)
	defer m.Close()
	got := Parallel(m, g, src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d: level %d, want %d", i, got[i], want[i])
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Generate(100, 4, 1)
	g.Edges[0] = 1000 // out of range
	if g.Validate() == nil {
		t.Fatal("Validate accepted out-of-range edge")
	}
	g = Generate(100, 4, 1)
	g.Offsets[5] = g.Offsets[6] + 1 // non-monotone
	if g.Validate() == nil {
		t.Fatal("Validate accepted non-monotone offsets")
	}
	g = Generate(100, 4, 1)
	g.Offsets = g.Offsets[:50]
	if g.Validate() == nil {
		t.Fatal("Validate accepted truncated offsets")
	}
}
