package kernels

// The paper's peak-flops microbenchmark: "a chain of Fused Multiply Add
// instructions (similar to clpeak). Each kernel performs 16×128 FMA
// operations using single and double precision floating point values."
// The chain is serially dependent per lane, so with enough lanes in flight
// it saturates the FMA pipelines; on the host it is simply a verifiable
// compute kernel whose flop count we know exactly.

// FMAChainDepth is the paper's per-work-item chain length: 16 × 128 FMAs.
const FMAChainDepth = 16 * 128

// FMAFlopsPerIter counts one FMA as two flops.
const FMAFlopsPerIter = 2

// FMAChain64 runs a depth-long FMA chain x = x*a + b on each lane of xs in
// double precision and returns the total flop count.
func FMAChain64(xs []float64, a, b float64, depth int) int64 {
	if depth <= 0 {
		depth = FMAChainDepth
	}
	for i := range xs {
		x := xs[i]
		for j := 0; j < depth; j++ {
			x = x*a + b
		}
		xs[i] = x
	}
	return int64(len(xs)) * int64(depth) * FMAFlopsPerIter
}

// FMAClosedForm returns the exact value of the chain x_{k+1} = x_k·a + b
// after depth steps starting from x0: a^d·x0 + b·(a^d−1)/(a−1) for a ≠ 1,
// or x0 + d·b for a = 1. Tests use it to verify the kernels bit-for-bit
// is not required — but within floating-point tolerance the chain must
// match the closed form.
func FMAClosedForm(x0, a, b float64, depth int) float64 {
	//pvclint:ignore floateq a == 1 is the exact singular case of the geometric sum (divides by a-1); IEEE comparison against the literal is intended
	if a == 1 {
		return x0 + float64(depth)*b
	}
	ad := 1.0
	for i := 0; i < depth; i++ {
		ad *= a
	}
	return ad*x0 + b*(ad-1)/(a-1)
}
