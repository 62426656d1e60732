package hw

import "fmt"

// Precision enumerates the numeric formats benchmarked by the paper's GEMM
// microbenchmark (Table II) plus the FP16 format used by HGEMM.
type Precision int

const (
	FP64 Precision = iota
	FP32
	FP16
	BF16
	TF32
	I8
	numPrecisions
)

// String returns the conventional short name.
func (p Precision) String() string {
	switch p {
	case FP64:
		return "FP64"
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case BF16:
		return "BF16"
	case TF32:
		return "TF32"
	case I8:
		return "I8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// EngineClass distinguishes the two execution pipelines of a modern GPU
// compute unit: the SIMD vector pipeline and the matrix (XMX / tensor core
// / matrix core) pipeline.
type EngineClass int

const (
	// VectorEngine is the 512-bit SIMD vector pipeline (PVC), SM FP pipe
	// (NVIDIA) or SIMD unit (AMD).
	VectorEngine EngineClass = iota
	// MatrixEngine is the 4096-bit XMX pipeline (PVC), tensor core
	// (NVIDIA) or matrix core (AMD).
	MatrixEngine
)

// String returns the class name.
func (c EngineClass) String() string {
	if c == VectorEngine {
		return "vector"
	}
	return "matrix"
}
