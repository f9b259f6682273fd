// Package soc models the hardware platforms evaluated in the paper
// (Table 1): the NVIDIA Tegra 2 and Tegra 3 and Samsung Exynos 5250
// mobile SoCs on their developer boards, and the Intel Core i7-2760QM
// laptop used as the HPC-class comparison point.
//
// A Platform is a parametric stand-in for the physical board: core count,
// microarchitecture, DVFS operating points, cache sizes, memory-controller
// geometry, NIC attachment, and a whole-platform power model. These are
// exactly the levers the paper's measurements exercise, so downstream
// models (internal/perf, internal/power, internal/interconnect) derive
// their behaviour from this catalogue alone.
package soc

import "fmt"

// ArchID identifies a CPU microarchitecture.
type ArchID string

// Microarchitectures appearing in the paper's evaluation.
const (
	CortexA9    ArchID = "Cortex-A9"
	CortexA15   ArchID = "Cortex-A15"
	SandyBridge ArchID = "SandyBridge"
)

// Microarch captures the per-core properties of a CPU microarchitecture
// that the performance model consumes.
type Microarch struct {
	ID ArchID
	// FlopsPerCycle is the peak double-precision flops per cycle per
	// core. Cortex-A9 performs one FMA every two cycles (1 flop/cycle);
	// Cortex-A15 has a fully pipelined FMA (2 flops/cycle); Sandy Bridge
	// issues a 4-wide AVX add and multiply per cycle (8 flops/cycle).
	FlopsPerCycle float64
	// ScalarFlopsPerCycle is the double-precision throughput when code
	// cannot use the SIMD/FMA width (one scalar pipe).
	ScalarFlopsPerCycle float64
	// SustainedFrac in (0,1] is the fraction of peak flops/cycle that
	// well-tuned real code sustains. It captures what the peak numbers
	// hide: ARMv7 NEON has no FP64 SIMD, so the Cortex cores reach peak
	// only with back-to-back scalar FMAs (A15 rarely does), and Sandy
	// Bridge reaches 8 flops/cycle only with perfectly balanced AVX
	// add/mul streams. Calibrated against the paper's §3.1.1 ratios.
	SustainedFrac float64
	// ILPFactor in (0,1] scales throughput on irregular, dependence-heavy
	// code; deeper out-of-order machines (A15, Sandy Bridge) hide more.
	ILPFactor float64
	// MemOverlap in [0,1] is the fraction of memory time hidden under
	// compute by the out-of-order window and prefetchers.
	MemOverlap float64
	// MaxOutstandingMisses limits single-core memory-level parallelism;
	// the A15 raised this over the A9, which the paper credits for much
	// of its bandwidth gain.
	MaxOutstandingMisses int
	// BWFreqSens in [0,1] is how strongly single-core achievable
	// bandwidth tracks core frequency: miss-handling is issued by the
	// core, so a concurrency-limited core (few outstanding misses)
	// loses bandwidth as it is down-clocked. 0 = bandwidth independent
	// of frequency; 1 = fully proportional.
	BWFreqSens float64
}

var microarchs = map[ArchID]*Microarch{
	CortexA9: {
		ID:                   CortexA9,
		FlopsPerCycle:        1.0,
		ScalarFlopsPerCycle:  1.0,
		SustainedFrac:        0.90,
		ILPFactor:            0.48,
		MemOverlap:           0.30,
		MaxOutstandingMisses: 4,
		BWFreqSens:           0.50,
	},
	CortexA15: {
		ID:                   CortexA15,
		FlopsPerCycle:        2.0,
		ScalarFlopsPerCycle:  2.0,
		SustainedFrac:        0.45,
		ILPFactor:            0.62,
		MemOverlap:           0.55,
		MaxOutstandingMisses: 11,
		BWFreqSens:           0.75,
	},
	SandyBridge: {
		ID:                   SandyBridge,
		FlopsPerCycle:        8.0,
		ScalarFlopsPerCycle:  2.0,
		SustainedFrac:        0.28,
		ILPFactor:            0.80,
		MemOverlap:           0.75,
		MaxOutstandingMisses: 32,
		BWFreqSens:           0.30,
	},
}

// Arch returns the microarchitecture description for id.
func Arch(id ArchID) *Microarch {
	m, ok := microarchs[id]
	if !ok {
		panic(fmt.Sprintf("soc: unknown microarchitecture %q", id))
	}
	return m
}

// MemorySystem describes the platform memory controller (Table 1).
type MemorySystem struct {
	Channels   int
	WidthBits  int
	FreqMHz    float64
	PeakGBs    float64 // peak bandwidth, GB/s
	DRAMMB     int
	DRAMType   string
	ECCCapable bool // mobile SoCs in the paper: false (a §6.3 limitation)
	// StreamEffSingle/StreamEffMulti: achievable fraction of peak
	// bandwidth under STREAM for one core and for all cores. The
	// multi-core figures reproduce the paper's measured efficiencies:
	// 62% (Tegra 2), 27% (Tegra 3), 52% (Exynos 5250), 57% (i7).
	StreamEffSingle float64
	StreamEffMulti  float64
}

// NICAttach says how the Ethernet controller reaches the SoC; the paper
// shows the USB 3.0 attach on the Arndale board costs extra software
// latency compared to the Tegra boards' PCIe attach.
type NICAttach string

const (
	AttachPCIe       NICAttach = "PCIe"
	AttachUSB        NICAttach = "USB"
	AttachIntegrated NICAttach = "integrated"
)

// PowerModel gives whole-platform power as a function of frequency and
// active core count: P = IdleW + n*(CoreDynA*f + CoreDynB*f^3), f in GHz.
// IdleW covers everything that is not a CPU core — the paper observes
// that "the majority of the power is used by other components".
type PowerModel struct {
	IdleW    float64
	CoreDynA float64 // W per GHz per core (linear CV^2 term at fixed V)
	CoreDynB float64 // W per GHz^3 per core (voltage scaling with f)
}

// Watts returns platform power with n cores active at frequency fGHz.
func (pm PowerModel) Watts(fGHz float64, n int) float64 {
	return pm.IdleW + float64(n)*(pm.CoreDynA*fGHz+pm.CoreDynB*fGHz*fGHz*fGHz)
}

// Platform is one evaluated system: SoC (or CPU) plus its developer
// board/laptop context.
type Platform struct {
	Name     string // short name used in tables ("Tegra2", ...)
	SoC      string // marketing name
	Board    string // developer kit (Table 1 bottom block)
	Arch     *Microarch
	Cores    int
	Threads  int
	FreqGHz  []float64 // DVFS operating points, ascending
	L1KB     int       // per-core I/D
	L2KB     int
	L2Shared bool
	L3KB     int
	Mem      MemorySystem
	NIC      NICAttach
	EthMbps  []int // Ethernet interfaces on the kit
	Power    PowerModel
	PriceUSD float64 // list/teardown price used in the §1 cost argument
	Mobile   bool
}

// MaxFreq returns the highest DVFS point in GHz.
func (p *Platform) MaxFreq() float64 { return p.FreqGHz[len(p.FreqGHz)-1] }

// MinFreq returns the lowest DVFS point in GHz.
func (p *Platform) MinFreq() float64 { return p.FreqGHz[0] }

// HasFreq reports whether f is a valid operating point for p.
func (p *Platform) HasFreq(f float64) bool {
	for _, g := range p.FreqGHz {
		if g == f {
			return true
		}
	}
	return false
}

// PeakGFLOPS returns peak double-precision GFLOPS of all cores at fGHz.
func (p *Platform) PeakGFLOPS(fGHz float64) float64 {
	return float64(p.Cores) * p.Arch.FlopsPerCycle * fGHz
}

// PeakGFLOPSMax is PeakGFLOPS at the maximum frequency (the Table 1
// "FP-64 GFLOPS" row).
func (p *Platform) PeakGFLOPSMax() float64 { return p.PeakGFLOPS(p.MaxFreq()) }

func (p *Platform) String() string {
	return fmt.Sprintf("%s (%s, %d cores @ %.1f GHz)", p.Name, p.Arch.ID, p.Cores, p.MaxFreq())
}

// Tegra2 returns the NVIDIA Tegra 2 on the SECO Q7 module used in
// Tibidabo nodes: dual Cortex-A9 at up to 1.0 GHz, single-channel
// DDR2-667, PCIe-attached 1 GbE.
func Tegra2() *Platform {
	return &Platform{
		Name:    "Tegra2",
		SoC:     "NVIDIA Tegra 2",
		Board:   "SECO Q7 module + carrier",
		Arch:    Arch(CortexA9),
		Cores:   2,
		Threads: 2,
		FreqGHz: []float64{0.456, 0.608, 0.760, 1.0},
		L1KB:    32, L2KB: 1024, L2Shared: true,
		Mem: MemorySystem{
			Channels: 1, WidthBits: 32, FreqMHz: 333, PeakGBs: 2.6,
			DRAMMB: 1024, DRAMType: "DDR2-667",
			StreamEffSingle: 0.38, StreamEffMulti: 0.62,
		},
		NIC:      AttachPCIe,
		EthMbps:  []int{1000, 100},
		Power:    PowerModel{IdleW: 3.78, CoreDynA: 0.18, CoreDynB: 0.15},
		PriceUSD: 21,
		Mobile:   true,
	}
}

// Tegra3 returns the NVIDIA Tegra 3 on the SECO CARMA kit: quad
// Cortex-A9 at up to 1.3 GHz with an improved single-channel memory
// controller (DDR3L-1600).
func Tegra3() *Platform {
	return &Platform{
		Name:    "Tegra3",
		SoC:     "NVIDIA Tegra 3",
		Board:   "SECO CARMA",
		Arch:    Arch(CortexA9),
		Cores:   4,
		Threads: 4,
		FreqGHz: []float64{0.51, 0.76, 1.0, 1.3},
		L1KB:    32, L2KB: 1024, L2Shared: true,
		Mem: MemorySystem{
			Channels: 1, WidthBits: 32, FreqMHz: 750, PeakGBs: 5.86,
			DRAMMB: 2048, DRAMType: "DDR3L-1600",
			StreamEffSingle: 0.23, StreamEffMulti: 0.27,
		},
		NIC:      AttachPCIe,
		EthMbps:  []int{1000},
		Power:    PowerModel{IdleW: 3.37, CoreDynA: 0.17, CoreDynB: 0.15},
		PriceUSD: 25,
		Mobile:   true,
	}
}

// Exynos5250 returns the Samsung Exynos 5 Dual on the Arndale board:
// dual Cortex-A15 at up to 1.7 GHz, dual-channel DDR3L-1600, and a 100
// Mb Ethernet port whose controller hangs off USB 3.0.
func Exynos5250() *Platform {
	return &Platform{
		Name:    "Exynos5250",
		SoC:     "Samsung Exynos 5250",
		Board:   "Arndale 5",
		Arch:    Arch(CortexA15),
		Cores:   2,
		Threads: 2,
		FreqGHz: []float64{0.2, 0.6, 1.0, 1.4, 1.7},
		L1KB:    32, L2KB: 1024, L2Shared: true,
		Mem: MemorySystem{
			Channels: 2, WidthBits: 32, FreqMHz: 800, PeakGBs: 12.8,
			DRAMMB: 2048, DRAMType: "DDR3L-1600",
			StreamEffSingle: 0.22, StreamEffMulti: 0.52,
		},
		NIC:      AttachUSB,
		EthMbps:  []int{100},
		Power:    PowerModel{IdleW: 4.13, CoreDynA: 0.06, CoreDynB: 0.04},
		PriceUSD: 30,
		Mobile:   true,
	}
}

// CoreI7 returns the Intel Core i7-2760QM in the Dell Latitude E6420
// laptop: quad Sandy Bridge at up to 2.4 GHz (base clock; the paper's
// Table 1 figure), dual-channel DDR3-1133, integrated 1 GbE.
func CoreI7() *Platform {
	return &Platform{
		Name:    "i7-2760QM",
		SoC:     "Intel Core i7-2760QM",
		Board:   "Dell Latitude E6420",
		Arch:    Arch(SandyBridge),
		Cores:   4,
		Threads: 8,
		FreqGHz: []float64{0.8, 1.2, 1.6, 2.0, 2.4},
		L1KB:    32, L2KB: 256, L2Shared: false, L3KB: 6144,
		Mem: MemorySystem{
			Channels: 2, WidthBits: 64, FreqMHz: 800, PeakGBs: 25.6,
			DRAMMB: 8192, DRAMType: "DDR3-1133",
			StreamEffSingle: 0.45, StreamEffMulti: 0.57,
		},
		NIC:      AttachIntegrated,
		EthMbps:  []int{1000},
		Power:    PowerModel{IdleW: 33.2, CoreDynA: 0.10, CoreDynB: 0.02},
		PriceUSD: 378,
		Mobile:   false,
	}
}

// All returns the four evaluated platforms in the paper's column order.
func All() []*Platform {
	return []*Platform{Tegra2(), Tegra3(), Exynos5250(), CoreI7()}
}
