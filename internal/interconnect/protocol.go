// Package interconnect models the cluster network of §4.1: Ethernet
// links and switches, the NIC attachment of each developer board (PCIe
// on the SECO/Tegra boards, USB 3.0 on the Arndale), and the two
// message-passing protocol stacks the paper compares — kernel TCP/IP
// and Open-MX, the Myrinet-Express-over-Ethernet stack that bypasses
// TCP/IP and removes memory copies.
//
// The latency/bandwidth structure is the paper's: a fixed software
// component, a CPU-time component that shrinks with core frequency
// ("when the frequency of the Exynos 5 SoC is increased, the latency
// decreases, which indicates that a large part of the overhead is
// caused by software"), per-byte copy costs on both sides, and wire
// serialisation on the shared links, simulated event by event.
package interconnect

import (
	"fmt"

	"mobilehpc/internal/soc"
)

// Protocol describes a message-passing software stack.
type Protocol struct {
	Name string
	// FixedLatUS: per-message one-way software latency that does not
	// scale with CPU frequency (interrupt path, NIC doorbells), µs.
	FixedLatUS float64
	// CPUTimeUS: per-message one-way CPU time at a 1 GHz Cortex-A9,
	// scaled by core frequency and architecture speed, µs.
	CPUTimeUS float64
	// PerByteUS: per-byte CPU/copy cost at a 1 GHz Cortex-A9, µs/byte.
	// TCP/IP pays checksum plus two copies; Open-MX is zero-copy on the
	// sender and single-copy on the receiver for large messages.
	PerByteUS float64
	// RendezvousBytes: messages larger than this use a rendezvous
	// handshake (an extra small-message round trip) before the payload
	// moves. Zero disables rendezvous.
	RendezvousBytes int
}

// TCPIP is the kernel TCP/IP stack used by default by OpenMPI.
func TCPIP() Protocol {
	return Protocol{
		Name:       "TCP/IP",
		FixedLatUS: 45.0,
		CPUTimeUS:  50.3,
		PerByteUS:  7.385e-3,
	}
}

// OpenMX is the Open-MX direct Ethernet message-passing stack: lower
// fixed cost, less CPU work, near-zero per-byte cost, with rendezvous
// and memory pinning above 32 KiB (§4.1).
func OpenMX() Protocol {
	return Protocol{
		Name:            "Open-MX",
		FixedLatUS:      22.9,
		CPUTimeUS:       37.4,
		PerByteUS:       0.547e-3,
		RendezvousBytes: 32 << 10,
	}
}

// attachParams returns the NIC-attach cost for a platform: fixed extra
// latency plus a per-byte cost of moving data across the attach bus
// (at a 1 GHz Cortex-A9 reference, scaled like protocol CPU time).
func attachParams(a soc.NICAttach) (fixedUS, perByteUS float64) {
	switch a {
	case soc.AttachPCIe:
		return 4.7, 0.115e-3
	case soc.AttachUSB:
		// The Arndale's Ethernet hangs off USB 3.0: "all network
		// communication has to pass through the USB software stack and
		// this yields higher latency" (§4.1).
		return 36.3, 6.9e-3
	case soc.AttachIntegrated:
		return 2.0, 0.05e-3
	}
	panic(fmt.Sprintf("interconnect: unknown NIC attach %q", a))
}

// archSpeed is the relative per-clock speed of protocol software on
// each microarchitecture (network stacks are scalar integer code).
func archSpeed(id soc.ArchID) float64 {
	switch id {
	case soc.CortexA9:
		return 1.0
	case soc.CortexA15:
		return 1.15
	case soc.CortexA57:
		return 1.6 // ARMv8 projection: wider integer core
	case soc.SandyBridge:
		return 3.0
	}
	panic(fmt.Sprintf("interconnect: unknown arch %q", id))
}

// Endpoint is one side of a connection: a platform running its NIC at
// a given core frequency under a given protocol.
type Endpoint struct {
	Platform *soc.Platform
	FGHz     float64
	Proto    Protocol
}

// cpuScale returns the divisor applied to CPU-time costs.
func (e Endpoint) cpuScale() float64 {
	return e.FGHz * archSpeed(e.Platform.Arch.ID)
}

// perByteTotalUS is the combined per-byte CPU cost (µs/byte): protocol
// and attach copies share the memory system, so the slower path
// dominates and the faster one partially hides behind it.
func (e Endpoint) perByteTotalUS() float64 {
	s := e.cpuScale()
	pp := e.Proto.PerByteUS / s
	_, attachPerByte := attachParams(e.Platform.NIC)
	ap := attachPerByte / s
	hi, lo := pp, ap
	if ap > pp {
		hi, lo = ap, pp
	}
	return hi + 0.25*lo
}

// SoftwareLatencyUS is the one-way per-message software latency in µs
// excluding per-byte and wire terms.
func (e Endpoint) SoftwareLatencyUS() float64 {
	attachFixed, _ := attachParams(e.Platform.NIC)
	return e.Proto.FixedLatUS + attachFixed + e.Proto.CPUTimeUS/e.cpuScale()
}

// SendCost returns the CPU time (seconds) the sending core spends to
// push an m-byte message: half the software latency plus half the
// per-byte cost (the other halves are paid by the receiver).
func (e Endpoint) SendCost(m int) float64 {
	us := e.SoftwareLatencyUS()/2 + e.perByteTotalUS()*float64(m)/2
	return us * 1e-6
}

// RecvCost returns the CPU time (seconds) the receiving core spends to
// deliver an m-byte message.
func (e Endpoint) RecvCost(m int) float64 {
	return e.SendCost(m) // symmetric in this model
}

// OneWayLatency returns the end-to-end one-way time (seconds) for an
// m-byte message between two identical endpoints over a direct link of
// linkGbps, excluding switch hops (use a Network for topologies). This
// is the analytic form of the ping-pong measurement in Figure 7.
func OneWayLatency(e Endpoint, m int, linkGbps float64) float64 {
	wireUS := float64(m) * 8 / (linkGbps * 1e3) // bytes -> µs on the wire
	us := e.SoftwareLatencyUS() + e.perByteTotalUS()*float64(m) + wireUS
	if e.Proto.RendezvousBytes > 0 && m > e.Proto.RendezvousBytes {
		// Rendezvous: a zero-byte RTS/CTS round trip precedes the data.
		us += 2 * e.SoftwareLatencyUS()
	}
	return us * 1e-6
}

// EffectiveBandwidth returns the achieved ping-pong bandwidth in MB/s
// for message size m over a direct link (Figure 7 bottom row).
func EffectiveBandwidth(e Endpoint, m int, linkGbps float64) float64 {
	t := OneWayLatency(e, m, linkGbps)
	return float64(m) / t / 1e6
}
