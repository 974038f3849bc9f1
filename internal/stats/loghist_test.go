package stats

import (
	"bytes"
	"strings"
	"testing"
)

func TestLogHistBuckets(t *testing.T) {
	var h LogHist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1000, -5} {
		h.Add(v)
	}
	if h.N() != 9 {
		t.Fatalf("N = %d, want 9", h.N())
	}
	type bucket struct{ lo, hi, count int64 }
	var got []bucket
	h.Buckets(func(lo, hi, c int64) { got = append(got, bucket{lo, hi, c}) })
	want := []bucket{
		{0, 1, 2},      // 0, -5 (clamped)
		{1, 2, 1},      // 1
		{2, 4, 2},      // 2, 3
		{4, 8, 2},      // 4, 7
		{8, 16, 1},     // 8
		{512, 1024, 1}, // 1000
	}
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestLogHistPowersOfTwoLandLow(t *testing.T) {
	// An exact power of two must open its bucket: [2^(i-1), 2^i) gets
	// v = 2^(i-1), not v = 2^i.
	var h LogHist
	h.Add(64)
	h.Buckets(func(lo, hi, c int64) {
		if lo != 64 || hi != 128 {
			t.Fatalf("64 landed in [%d, %d), want [64, 128)", lo, hi)
		}
	})
}

func TestLogHistRender(t *testing.T) {
	var h LogHist
	for i := 0; i < 8; i++ {
		h.Add(100)
	}
	h.Add(5)
	var buf bytes.Buffer
	h.Render(&buf, 20, nil)
	out := buf.String()
	if !strings.Contains(out, "#") {
		t.Fatalf("render has no bars:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Fatalf("render has %d lines, want 2 non-empty buckets:\n%s", lines, out)
	}
	// The single-count bucket must still draw a visible bar.
	var empty LogHist
	buf.Reset()
	empty.Render(&buf, 20, nil)
	if !strings.Contains(buf.String(), "(empty)") {
		t.Fatalf("empty render = %q", buf.String())
	}
}
