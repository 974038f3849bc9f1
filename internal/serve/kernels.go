package serve

// The chunk bodies of the vector kernels: every loop chunk a sum, axpy
// or matvec request (and every /fanout part) runs is one call here.
// They are written to stream memory rather than wait on it:
//
//   - sumChunk and dotRow keep four independent accumulators. A single
//     accumulator makes the loop one dependent floating-point add
//     chain, so each element waits out the previous add's latency; four
//     chains keep the adder busy and the loop load-bound. Four is where
//     the gain stops on a 2-vCPU Xeon: over 131 072 elements one chain
//     takes 113-178 us, four 54-72 us, eight 54-63 us. The result is
//     the same sum reassociated, not bit-identical to a left-to-right
//     one; results are checked to a relative tolerance.
//   - Each function re-slices its inputs to one length at entry, and the
//     four-wide loops step by re-slicing (xs = xs[4:]), so the compiler
//     proves every index in bounds: the loops carry no bounds check and,
//     because the slices are parameters rather than fields reloaded
//     through a pointer the stores may alias, no reload either.
//
// `make bce` fails if an indexed bounds check (IsInBounds) appears in
// this file; the entry re-slices (IsSliceInBounds) are allowed.

// sumChunk returns the sum of xs.
func sumChunk(xs []float64) float64 {
	var s0, s1, s2, s3 float64
	for len(xs) >= 4 {
		v := xs[:4:4]
		s0 += v[0]
		s1 += v[1]
		s2 += v[2]
		s3 += v[3]
		xs = xs[4:]
	}
	for _, v := range xs {
		s0 += v
	}
	return (s0 + s1) + (s2 + s3)
}

// axpyChunk stores a*xs[i] + ys[i] into out[i] for every i < len(out).
// xs and ys must be at least as long as out.
func axpyChunk(a float64, xs, ys, out []float64) {
	xs, ys = xs[:len(out)], ys[:len(out)]
	for i := range out {
		out[i] = a*xs[i] + ys[i]
	}
}

// dotRow returns the dot product of row with xs[:len(row)].
func dotRow(row, xs []float64) float64 {
	xs = xs[:len(row)]
	var s0, s1, s2, s3 float64
	for len(row) >= 4 && len(xs) >= 4 {
		r, v := row[:4:4], xs[:4:4]
		s0 += r[0] * v[0]
		s1 += r[1] * v[1]
		s2 += r[2] * v[2]
		s3 += r[3] * v[3]
		row, xs = row[4:], xs[4:]
	}
	xs = xs[:len(row)]
	for i, r := range row {
		s0 += r * xs[i]
	}
	return (s0 + s1) + (s2 + s3)
}
