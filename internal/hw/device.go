// Package hw describes the GPU architectures benchmarked by the paper from
// first principles: the Intel Data Center GPU Max 1550 ("Ponte Vecchio",
// PVC) with its Xe-Core / Xe-Slice / Xe-Stack hierarchy, the NVIDIA H100
// SXM5, and the AMD Instinct MI250 with its two GCDs.
//
// Peak rates are derived, not tabulated: e.g. one PVC Xe-Core performs
// 8 vector engines × 8-wide FP64 SIMD × 2 (FMA) × 2 (dual issue) = 256
// double precision operations per clock, so a full 128-Xe-Core card reaches
// the paper's quoted 32,768 FP64 ops/clock. Operating frequencies under
// TDP constraints come from the power package.
package hw

import (
	"fmt"

	"pvcsim/internal/units"
)

// CacheLevel describes one level of a device's memory hierarchy as observed
// by the lats pointer-chase benchmark (Figure 1): a capacity (the footprint
// at which the latency ladder steps up) and a load-to-use latency in clock
// cycles for the coalesced sub-group access pattern.
type CacheLevel struct {
	Name          string
	Capacity      units.Bytes
	LatencyCycles float64
}

// LinkSpec describes one interconnect port in one direction, with the
// duplex behaviour observed by the microbenchmarks: sustained
// unidirectional bandwidth is Efficiency × Raw, and simultaneous
// bidirectional traffic totals DuplexFactor × sustained unidirectional
// (ideal full duplex would be 2.0; the paper measures 1.4 on PVC PCIe).
type LinkSpec struct {
	Name         string
	Raw          units.ByteRate // theoretical per direction
	Efficiency   float64        // achievable fraction of Raw per direction
	DuplexFactor float64        // bidir total as a multiple of sustained uni
	Latency      units.Seconds  // per-message latency each way
}

// Sustained returns the achievable unidirectional bandwidth.
func (l LinkSpec) Sustained() units.ByteRate {
	return units.ByteRate(float64(l.Raw) * l.Efficiency)
}

// SubdeviceSpec describes one independently schedulable subdevice: a PVC
// Xe-Stack, an MI250 GCD, or a whole H100 (which has no subdevice split).
type SubdeviceSpec struct {
	Name      string
	CoreCount int // Xe-Cores, SMs, or CUs

	// Per-core per-clock throughput (operations per clock per core) for
	// each pipeline. A zero entry means the pipeline does not support the
	// precision (e.g. PVC's matrix engines support only lower precisions).
	VectorOpsPerClockPerCore map[Precision]float64
	MatrixOpsPerClockPerCore map[Precision]float64

	Memory           units.Bytes    // local HBM capacity
	MemBWTheoretical units.ByteRate // HBM spec bandwidth
	MemBWSustained   units.ByteRate // triad-achievable bandwidth

	// Caches is ordered from closest (L1) to farthest (HBM); the last
	// entry's Capacity is the HBM capacity and its latency is the HBM
	// access latency.
	Caches []CacheLevel
}

// OpsPerClock returns the subdevice-wide operations per clock for the given
// pipeline and precision.
func (s *SubdeviceSpec) OpsPerClock(class EngineClass, p Precision) float64 {
	var per float64
	if class == VectorEngine {
		per = s.VectorOpsPerClockPerCore[p]
	} else {
		per = s.MatrixOpsPerClockPerCore[p]
	}
	return per * float64(s.CoreCount)
}

// PeakRate returns the subdevice peak throughput for the pipeline and
// precision at clock f.
func (s *SubdeviceSpec) PeakRate(class EngineClass, p Precision, f units.Frequency) units.Rate {
	return units.Rate(s.OpsPerClock(class, p) * float64(f))
}

// PowerModel parameterizes the DVFS/TDP governor (see the power package):
// sustained dynamic power is modeled as
//
//	P = IdleW + CoreCount × CoreDynW × weight(workload) × (f/GHz)³
//
// per power domain, and the governor picks the largest f ≤ MaxClock that
// fits the domain's cap.
type PowerModel struct {
	MaxClock  units.Frequency
	IdleClock units.Frequency // idle/minimum frequency setting
	IdleW     float64         // static power per domain, watts
	CoreDynW  float64         // dynamic watts per core at 1 GHz, weight 1.0
	// Weights gives the relative switching energy of each workload class;
	// FP64 vector FMA is the 1.0 reference. Missing entries default to
	// the lightest observed (no throttling).
	Weights map[WorkloadClass]float64
}

// WorkloadClass coarsely classifies an instruction mix for the governor.
type WorkloadClass int

const (
	IdleWorkload WorkloadClass = iota
	MemoryBound                // streams: bandwidth, not switching, dominated
	VectorFP64
	VectorFP32
	MatrixLow // FP16/BF16/TF32/I8 matrix pipelines
)

// String names the workload class.
func (w WorkloadClass) String() string {
	switch w {
	case IdleWorkload:
		return "idle"
	case MemoryBound:
		return "memory"
	case VectorFP64:
		return "vector-fp64"
	case VectorFP32:
		return "vector-fp32"
	case MatrixLow:
		return "matrix-low"
	default:
		return fmt.Sprintf("WorkloadClass(%d)", int(w))
	}
}

// ClassOf maps a pipeline and precision to the governor's workload class.
func ClassOf(class EngineClass, p Precision) WorkloadClass {
	if class == MatrixEngine {
		return MatrixLow
	}
	if p == FP64 {
		return VectorFP64
	}
	return VectorFP32
}

// DeviceSpec describes one GPU card.
type DeviceSpec struct {
	Name     string
	Vendor   string
	Sub      SubdeviceSpec
	SubCount int // stacks (PVC: 2), GCDs (MI250: 2), or 1 (H100)

	Power     PowerModel
	PowerCapW float64 // per card

	HostLink     LinkSpec // PCIe to the host (one link per card)
	InternalLink LinkSpec // stack-to-stack / GCD-to-GCD inside the card
	PeerLink     LinkSpec // Xe-Link / NVLink / Infinity Fabric between cards
}

// DomainCapW returns the power cap of one subdevice's power domain; the
// card cap is shared evenly between subdevices.
func (d *DeviceSpec) DomainCapW() float64 {
	if d.SubCount <= 0 {
		return d.PowerCapW
	}
	return d.PowerCapW / float64(d.SubCount)
}

// --- Intel Data Center GPU Max 1550 (Ponte Vecchio) ---

// PVC micro-architecture constants (Section II of the paper).
const (
	PVCVectorEnginesPerXeCore = 8
	PVCXeCoresPerSlice        = 16
	PVCSlicesPerStack         = 4
	PVCStacksPerCard          = 2
	// One vector engine: 512-bit SIMD = 8 FP64 lanes, each doing an FMA
	// (2 flops), dual-issued: 8 × 2 × 2 = 32 FP64 flops per clock.
	pvcVectorFP64PerVE = 8 * 2 * 2
	// FP32 has the same per-clock throughput by design (§IV-B2): the
	// observed 1.3× ratio comes purely from the operating frequency.
	pvcVectorFP32PerVE = pvcVectorFP64PerVE
	// The 4096-bit matrix (XMX) engine: 4096 FP16 ops/clock per Xe-Core
	// (512 per engine), TF32 at half rate, I8 at double rate, and no
	// FP64/FP32 support ("supports only lower precision operations").
	pvcMatrixFP16PerXeCore = 4096
)

// PVCOptions selects the node-specific PVC configuration: Aurora runs with
// 56 active Xe-Cores per stack at a 500 W card cap; Dawn with all 64 at
// 600 W.
type PVCOptions struct {
	ActiveXeCoresPerStack int
	PowerCapW             float64
	IdleClock             units.Frequency
	Variant               string // "Aurora" or "Dawn", for the card name
}

// NewPVC builds an Intel Data Center GPU Max 1550 card model.
func NewPVC(opt PVCOptions) *DeviceSpec {
	cores := opt.ActiveXeCoresPerStack
	if cores <= 0 {
		cores = PVCXeCoresPerSlice * PVCSlicesPerStack // 64
	}
	cap := opt.PowerCapW
	if cap <= 0 {
		cap = 600
	}
	perCoreFP64 := float64(PVCVectorEnginesPerXeCore * pvcVectorFP64PerVE) // 256
	sub := SubdeviceSpec{
		Name:      "Xe-Stack",
		CoreCount: cores,
		VectorOpsPerClockPerCore: map[Precision]float64{
			FP64: perCoreFP64,
			FP32: float64(PVCVectorEnginesPerXeCore * pvcVectorFP32PerVE),
			FP16: 2 * float64(PVCVectorEnginesPerXeCore*pvcVectorFP32PerVE),
		},
		MatrixOpsPerClockPerCore: map[Precision]float64{
			FP16: pvcMatrixFP16PerXeCore,
			BF16: pvcMatrixFP16PerXeCore,
			TF32: pvcMatrixFP16PerXeCore / 2,
			I8:   pvcMatrixFP16PerXeCore * 2,
		},
		Memory:           64 * units.GB,
		MemBWTheoretical: 1.6375 * units.TBps, // 3.275 TB/s per card / 2 stacks
		// The paper measures ~1 TB/s triad per stack, well under the
		// HBM2e spec, and leaves the gap unexplained (§IV-B3).
		MemBWSustained: 1.0 * units.TBps,
		Caches: []CacheLevel{
			{Name: "L1", Capacity: 512 * units.KiB, LatencyCycles: 61},
			{Name: "L2", Capacity: 192 * units.MiB, LatencyCycles: 390},
			{Name: "HBM", Capacity: 64 * units.GB, LatencyCycles: 810},
		},
	}
	return &DeviceSpec{
		Name:     "Intel Data Center GPU Max 1550 (" + opt.Variant + ")",
		Vendor:   "Intel",
		Sub:      sub,
		SubCount: PVCStacksPerCard,
		Power: PowerModel{
			MaxClock:  1.6 * units.GHz,
			IdleClock: opt.IdleClock,
			IdleW:     0,
			// Anchored so an Aurora stack (56 cores, 250 W domain) runs
			// FP64 FMA at the observed ~1.2 GHz: 250/(56×1.2³) ≈ 2.58.
			CoreDynW: 2.58,
			Weights: map[WorkloadClass]float64{
				VectorFP64:   1.0,
				VectorFP32:   0.42, // calibrated: FP32 FMA sustains ~1.6 GHz
				MatrixLow:    1.0,  // heavy XMX GEMMs throttle like FP64
				MemoryBound:  0.30,
				IdleWorkload: 0.0,
			},
		},
		PowerCapW: cap,
		HostLink: LinkSpec{
			Name:         "PCIe Gen5 x16",
			Raw:          64 * units.GBps,
			Efficiency:   0.845, // measured 54 GB/s H2D on one stack
			DuplexFactor: 1.41,  // measured 76 GB/s bidir vs 54 uni (§IV-B4)
			Latency:      2 * units.Microsecond,
		},
		InternalLink: LinkSpec{
			Name:         "Stack-to-Stack (MDFI)",
			Raw:          256 * units.GBps,
			Efficiency:   0.77, // measured 197 GB/s unidirectional
			DuplexFactor: 1.44, // measured 284 GB/s bidir: "55% efficiency vs 2×197"
			Latency:      800 * units.Nanosecond,
		},
		PeerLink: LinkSpec{
			Name:         "Xe-Link",
			Raw:          26.7 * units.GBps,
			Efficiency:   0.5625, // "55% efficiency in each direction" → 15 GB/s
			DuplexFactor: 1.53,   // measured 23 GB/s bidir vs 15 uni
			Latency:      1.5 * units.Microsecond,
		},
	}
}

// NewAuroraPVC returns the Aurora configuration: 56 active Xe-Cores per
// stack, 500 W card cap, 1.6 GHz idle frequency.
func NewAuroraPVC() *DeviceSpec {
	return NewPVC(PVCOptions{ActiveXeCoresPerStack: 56, PowerCapW: 500, IdleClock: 1.6 * units.GHz, Variant: "Aurora"})
}

// NewDawnPVC returns the Dawn configuration: all 64 Xe-Cores per stack,
// 600 W card cap.
func NewDawnPVC() *DeviceSpec {
	return NewPVC(PVCOptions{ActiveXeCoresPerStack: 64, PowerCapW: 600, IdleClock: 0, Variant: "Dawn"})
}

// --- NVIDIA H100 SXM5 80 GB ---

// NewH100 builds the H100 SXM5 model from the datasheet peaks in Table IV:
// FP64 34 TFlop/s, FP32 67 TFlop/s, HBM3 3.35 TB/s, PCIe Gen5.
func NewH100() *DeviceSpec {
	const sms = 132
	sub := SubdeviceSpec{
		Name:      "H100",
		CoreCount: sms,
		VectorOpsPerClockPerCore: map[Precision]float64{
			// 34 TF / (1.98 GHz × 132 SM) ≈ 130; the architectural number
			// is 128 FP64 FMA flops/clock/SM (64 FP64 lanes × 2).
			FP64: 128,
			FP32: 256,
			FP16: 512,
		},
		MatrixOpsPerClockPerCore: map[Precision]float64{
			// Tensor cores (dense): FP16 ≈ 990 TF → 3787/SM/clk at 1.98.
			FP64: 256, // DPX tensor FP64: 67 TF
			TF32: 1895,
			FP16: 3787,
			BF16: 3787,
			I8:   7574,
		},
		Memory:           80 * units.GB,
		MemBWTheoretical: 3.35 * units.TBps,
		MemBWSustained:   3.17 * units.TBps, // ~94.5% of spec, typical HBM3 stream
		Caches: []CacheLevel{
			{Name: "L1", Capacity: 256 * units.KiB, LatencyCycles: 32},
			{Name: "L2", Capacity: 50 * units.MiB, LatencyCycles: 260},
			{Name: "HBM", Capacity: 80 * units.GB, LatencyCycles: 658},
		},
	}
	return &DeviceSpec{
		Name:     "NVIDIA H100 SXM5 80GB",
		Vendor:   "NVIDIA",
		Sub:      sub,
		SubCount: 1,
		Power: PowerModel{
			MaxClock:  1.98 * units.GHz,
			IdleClock: 0,
			IdleW:     80,
			CoreDynW:  0.55, // 700 W cap is not reached by these workloads
			Weights: map[WorkloadClass]float64{
				VectorFP64: 1.0, VectorFP32: 0.6, MatrixLow: 1.0, MemoryBound: 0.3,
			},
		},
		PowerCapW: 700,
		HostLink: LinkSpec{
			Name:         "PCIe Gen5 x16",
			Raw:          64 * units.GBps,
			Efficiency:   0.85,
			DuplexFactor: 1.8,
			Latency:      2 * units.Microsecond,
		},
		InternalLink: LinkSpec{}, // no subdevice split
		PeerLink: LinkSpec{
			Name:         "NVLink 4",
			Raw:          450 * units.GBps,
			Efficiency:   0.9,
			DuplexFactor: 1.9,
			Latency:      700 * units.Nanosecond,
		},
	}
}

// --- AMD Instinct MI250 ---

// NewMI250 builds the MI250 model: two GCDs per card, datasheet peaks from
// Table IV (FP64 = FP32 = 45.3 TFlop/s per card vector+matrix mix), and
// the Frontier-measured sustained numbers from Table IV where available.
func NewMI250() *DeviceSpec {
	const cusPerGCD = 104
	sub := SubdeviceSpec{
		Name:      "GCD",
		CoreCount: cusPerGCD,
		VectorOpsPerClockPerCore: map[Precision]float64{
			// 22.65 TF per GCD / (1.7 GHz × 104 CU) ≈ 128 flops/clock/CU.
			FP64: 128,
			FP32: 128,
			FP16: 512,
		},
		MatrixOpsPerClockPerCore: map[Precision]float64{
			// Matrix cores have twice the vector FP64 peak (§IV-B5).
			FP64: 256,
			FP32: 256,
			FP16: 1024,
			BF16: 1024,
			I8:   1024,
		},
		Memory:           64 * units.GB,
		MemBWTheoretical: 1.6 * units.TBps,
		MemBWSustained:   1.3 * units.TBps, // Frontier-measured 80% of peak
		Caches: []CacheLevel{
			{Name: "L1", Capacity: 16 * units.KiB, LatencyCycles: 124},
			{Name: "L2", Capacity: 8 * units.MiB, LatencyCycles: 219},
			{Name: "HBM", Capacity: 64 * units.GB, LatencyCycles: 563},
		},
	}
	return &DeviceSpec{
		Name:     "AMD Instinct MI250",
		Vendor:   "AMD",
		Sub:      sub,
		SubCount: 2,
		Power: PowerModel{
			MaxClock:  1.7 * units.GHz,
			IdleClock: 0,
			IdleW:     60,
			CoreDynW:  0.35, // 560 W cap is not reached by these workloads
			Weights: map[WorkloadClass]float64{
				VectorFP64: 1.0, VectorFP32: 0.7, MatrixLow: 1.1, MemoryBound: 0.3,
			},
		},
		PowerCapW: 560,
		HostLink: LinkSpec{
			Name:         "PCIe Gen4 x16",
			Raw:          32 * units.GBps,
			Efficiency:   0.78, // measured 25 GB/s (Table IV)
			DuplexFactor: 1.7,
			Latency:      2.5 * units.Microsecond,
		},
		InternalLink: LinkSpec{
			Name: "Infinity Fabric (in-package)",
			Raw:  200 * units.GBps,
			// Frontier measures 37 GB/s for MPI-visible GCD-to-GCD
			// transfers (Table IV) against a 200 GB/s aggregate spec.
			Efficiency:   0.185,
			DuplexFactor: 1.8,
			Latency:      1 * units.Microsecond,
		},
		PeerLink: LinkSpec{
			Name:         "Infinity Fabric (card-to-card)",
			Raw:          100 * units.GBps,
			Efficiency:   0.37,
			DuplexFactor: 1.8,
			Latency:      1.3 * units.Microsecond,
		},
	}
}
