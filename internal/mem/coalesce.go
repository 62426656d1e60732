//pvclint:ignore testonly DESIGN §3 X11 coalescing model: mem.CoalescingEfficiency and the derated effective bandwidth
package mem

import (
	"fmt"

	"pvcsim/internal/units"
)

// Coalescing model for the paper's lats modification (§IV-A7): the
// benchmark was changed "to perform the same operation simultaneously on
// one sub-group or warp (Coalesced Access) with 16 work-items, reflecting
// the memory access patterns on modern GPUs". A sub-group load touches
// some number of cache lines depending on the element stride; the memory
// system issues one transaction per distinct line, so badly strided
// access patterns multiply the effective latency-bandwidth cost.

// SubGroupWidth is PVC's sub-group width used by the paper's variant.
const SubGroupWidth = 16

// TransactionsPerAccess returns how many distinct cache lines one
// width-wide sub-group access touches with the given element size and
// stride (both in bytes).
func TransactionsPerAccess(width int, elemBytes, strideBytes, lineBytes units.Bytes) (int, error) {
	if width < 1 || elemBytes <= 0 || lineBytes <= 0 {
		return 0, fmt.Errorf("mem: bad coalescing query (width=%d, elem=%v, line=%v)", width, elemBytes, lineBytes)
	}
	if strideBytes < elemBytes {
		strideBytes = elemBytes // elements cannot overlap
	}
	line := int64(lineBytes)
	seen := map[int64]struct{}{}
	for i := 0; i < width; i++ {
		first := int64(i) * int64(strideBytes) / line
		last := (int64(i)*int64(strideBytes) + int64(elemBytes) - 1) / line
		for l := first; l <= last; l++ {
			seen[l] = struct{}{}
		}
	}
	return len(seen), nil
}

// CoalescingEfficiency returns ideal/actual transactions for a sub-group
// access: 1.0 for unit-stride packed loads, 1/width for fully scattered
// ones.
func CoalescingEfficiency(width int, elemBytes, strideBytes, lineBytes units.Bytes) (float64, error) {
	actual, err := TransactionsPerAccess(width, elemBytes, strideBytes, lineBytes)
	if err != nil {
		return 0, err
	}
	ideal, err := TransactionsPerAccess(width, elemBytes, elemBytes, lineBytes)
	if err != nil {
		return 0, err
	}
	return float64(ideal) / float64(actual), nil
}

// EffectiveBandwidth derates a sustained bandwidth by the coalescing
// efficiency of the access pattern — the reason strided ports of
// bandwidth-bound kernels miss the triad number.
func EffectiveBandwidth(sustained units.ByteRate, width int, elemBytes, strideBytes, lineBytes units.Bytes) (units.ByteRate, error) {
	eff, err := CoalescingEfficiency(width, elemBytes, strideBytes, lineBytes)
	if err != nil {
		return 0, err
	}
	return units.ByteRate(float64(sustained) * eff), nil
}
