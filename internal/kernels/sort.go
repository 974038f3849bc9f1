package kernels

import (
	"context"

	"threading/internal/models"
)

// This file adds a recursive divide-and-conquer sort (merge sort, in
// the spirit of BOTS/cilksort from the paper's related work) as an
// extension workload: unlike Fibonacci its tasks carry real work and
// real memory traffic, so it probes the task runtimes between the
// extremes of fib (all scheduling) and the flat loops (no task
// structure).

// SortSeq merge-sorts data in place using scratch (same length).
func SortSeq(data, scratch []float64) {
	if len(data) != len(scratch) {
		panic("kernels: scratch length mismatch")
	}
	mergeSortSeq(data, scratch)
}

func mergeSortSeq(data, scratch []float64) {
	n := len(data)
	if n < 2 {
		return
	}
	if n <= 32 {
		insertionSort(data)
		return
	}
	mid := n / 2
	mergeSortSeq(data[:mid], scratch[:mid])
	mergeSortSeq(data[mid:], scratch[mid:])
	merge(data, scratch, mid)
}

func insertionSort(data []float64) {
	for i := 1; i < len(data); i++ {
		v := data[i]
		j := i - 1
		for j >= 0 && data[j] > v {
			data[j+1] = data[j]
			j--
		}
		data[j+1] = v
	}
}

// merge combines the sorted halves data[:mid] and data[mid:] using
// scratch.
func merge(data, scratch []float64, mid int) {
	copy(scratch, data)
	i, j := 0, mid
	for k := range data {
		switch {
		case i >= mid:
			data[k] = scratch[j]
			j++
		case j >= len(data):
			data[k] = scratch[i]
			i++
		case scratch[j] < scratch[i]:
			data[k] = scratch[j]
			j++
		default:
			data[k] = scratch[i]
			i++
		}
	}
}

// SortTask merge-sorts data under model m: halves below cutoff sort
// sequentially; larger halves are sorted as spawned sibling tasks and
// merged after the join. m must support tasks. cutoff < 64 is raised
// to 64.
func SortTask(m models.Model, data []float64, cutoff int) {
	if cutoff < 64 {
		cutoff = 64
	}
	scratch := make([]float64, len(data))
	models.Must(m.TaskRunCtx(context.Background(), func(s models.TaskScope) {
		sortScope(s, data, scratch, cutoff)
	}))
}

func sortScope(s models.TaskScope, data, scratch []float64, cutoff int) {
	n := len(data)
	if n <= cutoff {
		mergeSortSeq(data, scratch)
		return
	}
	mid := n / 2
	s.Spawn(func(cs models.TaskScope) {
		sortScope(cs, data[:mid], scratch[:mid], cutoff)
	})
	sortScope(s, data[mid:], scratch[mid:], cutoff)
	s.Sync()
	merge(data, scratch, mid)
}

// IsSorted reports whether data is in non-decreasing order.
func IsSorted(data []float64) bool {
	for i := 1; i < len(data); i++ {
		if data[i] < data[i-1] {
			return false
		}
	}
	return true
}
