// Package cluster assembles platforms and an interconnect into a
// simulated HPC machine. Its centrepiece is the Tibidabo preset — the
// paper's 192-node Tegra 2 prototype with a hierarchical 1 GbE network
// (48-port switches, 8 Gb/s bisection, at most three hops) — but any
// homogeneous cluster of catalogue platforms can be built.
package cluster

import (
	"fmt"

	"mobilehpc/internal/interconnect"
	"mobilehpc/internal/perf"
	"mobilehpc/internal/sim"
	"mobilehpc/internal/soc"
)

// Node is one cluster node: a platform at a fixed DVFS point.
type Node struct {
	ID       int
	Platform *soc.Platform
	FGHz     float64
	// down marks a fatal §6.3 memory event (no ECC: the node is dead
	// until rebooted); hung marks a §6.1 PCIe/NIC hang (the node stops
	// responding). Mutated via Cluster.FailNode/HangNode/RestoreNode.
	down, hung bool
}

// Alive reports whether the node is operational — neither failed nor
// hung.
func (n *Node) Alive() bool { return !n.down && !n.hung }

// ComputeTime returns the modelled time for this node to execute work
// shaped like pr using `threads` cores (see perf.IterTime).
func (n *Node) ComputeTime(pr perf.Profile, threads int) float64 {
	return perf.IterTime(n.Platform, n.FGHz, pr, threads)
}

// Endpoint returns the node's interconnect endpoint under proto.
func (n *Node) Endpoint(proto interconnect.Protocol) interconnect.Endpoint {
	return interconnect.Endpoint{Platform: n.Platform, FGHz: n.FGHz, Proto: proto}
}

// Cluster is a homogeneous machine: nodes, a network, and the
// message-passing protocol deployed on it.
type Cluster struct {
	Eng   *sim.Engine
	Nodes []*Node
	Net   *interconnect.Network
	Proto interconnect.Protocol
	// PerNodeOverheadW is non-compute power per node (PSU losses, board
	// components not modelled by the platform, fans): the paper blames
	// developer-kit overheads for much of Tibidabo's energy-efficiency
	// gap (§4, §6.1 footnote 13).
	PerNodeOverheadW float64
	// SwitchW and Switches describe network power.
	SwitchW  float64
	Switches int
}

// Size returns the node count.
func (c *Cluster) Size() int { return len(c.Nodes) }

// Config describes a cluster to build.
type Config struct {
	Nodes       int
	Platform    func() *soc.Platform
	FGHz        float64 // 0 = platform maximum
	Proto       interconnect.Protocol
	LinkGbps    float64
	UplinkGbps  float64 // 0 = single switch topology
	SwitchRadix int
	SwitchLatUS float64
	NodeOverW   float64
	SwitchW     float64
}

// New builds a cluster from the config on a fresh simulation engine.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	eng := sim.NewEngine()
	proto := cfg.Proto
	nodes := make([]*Node, cfg.Nodes)
	for i := range nodes {
		p := cfg.Platform()
		f := cfg.FGHz
		if f == 0 {
			f = p.MaxFreq()
		}
		if !p.HasFreq(f) {
			panic(fmt.Sprintf("cluster: %s has no %v GHz operating point", p.Name, f))
		}
		nodes[i] = &Node{ID: i, Platform: p, FGHz: f}
	}
	var net *interconnect.Network
	switches := 1
	if cfg.UplinkGbps > 0 {
		net = interconnect.Tree(eng, cfg.Nodes, cfg.SwitchRadix, cfg.LinkGbps,
			cfg.UplinkGbps, cfg.SwitchLatUS)
		switches = (cfg.Nodes+cfg.SwitchRadix-1)/cfg.SwitchRadix + 1
	} else {
		net = interconnect.SingleSwitch(eng, cfg.Nodes, cfg.LinkGbps, cfg.SwitchLatUS)
	}
	return &Cluster{
		Eng: eng, Nodes: nodes, Net: net, Proto: proto,
		PerNodeOverheadW: cfg.NodeOverW, SwitchW: cfg.SwitchW, Switches: switches,
	}
}

// Tibidabo builds an n-node slice of the Tibidabo prototype: Tegra 2
// nodes at 1 GHz, 1 GbE NICs over PCIe, hierarchical 48-port GbE
// switching with 4 Gb/s trunks (8 Gb/s bisection at 192 nodes), and
// MPI over TCP/IP as deployed on the real machine.
func Tibidabo(n int) *Cluster {
	return New(Config{
		Nodes:       n,
		Platform:    soc.Tegra2,
		FGHz:        1.0,
		Proto:       interconnect.TCPIP(),
		LinkGbps:    1.0,
		UplinkGbps:  4.0,
		SwitchRadix: 48,
		SwitchLatUS: 2.0,
		NodeOverW:   3.5,
		SwitchW:     25,
	})
}

// HangDegradeFactor is the NIC serialisation-time multiplier applied
// when a node hangs: a hung node's NIC goes near-silent rather than
// cleanly dead, so in-flight traffic through it crawls instead of
// vanishing (§6.1's "stopped responding" failure mode).
const HangDegradeFactor = 1e4

// FailNode marks node id dead — the §6.3 failure mode where a memory
// event without ECC kills the work on the node. The node stays down
// until RestoreNode. State only: layers that care (the checkpoint
// replay in internal/faults, schedulers) consult Alive.
func (c *Cluster) FailNode(id int) {
	c.Nodes[id].down = true
}

// HangNode marks node id unresponsive — the §6.1 PCIe/NIC hang — and
// degrades its NIC links by HangDegradeFactor so in-flight traffic
// through the node slows to a crawl rather than disappearing.
func (c *Cluster) HangNode(id int) {
	n := c.Nodes[id]
	if !n.hung && c.Net.NodeLinks(id) != nil {
		c.Net.DegradeNode(id, HangDegradeFactor)
	}
	n.hung = true
}

// RestoreNode reboots node id: clears failed and hung state and resets
// its NIC links to nominal bandwidth.
func (c *Cluster) RestoreNode(id int) {
	n := c.Nodes[id]
	n.down, n.hung = false, false
	c.Net.RestoreNode(id)
}

// Alive reports whether node id is operational.
func (c *Cluster) Alive(id int) bool { return c.Nodes[id].Alive() }

// AliveCount returns the number of operational nodes.
func (c *Cluster) AliveCount() int {
	alive := 0
	for _, n := range c.Nodes {
		if n.Alive() {
			alive++
		}
	}
	return alive
}

// PowerW returns total machine power with every node running
// activeCores cores.
func (c *Cluster) PowerW(activeCores int) float64 {
	w := float64(c.Switches) * c.SwitchW
	for _, n := range c.Nodes {
		w += n.Platform.Power.Watts(n.FGHz, activeCores) + c.PerNodeOverheadW
	}
	return w
}

// PeakGFLOPS returns aggregate peak FP64 GFLOPS.
func (c *Cluster) PeakGFLOPS() float64 {
	s := 0.0
	for _, n := range c.Nodes {
		s += n.Platform.PeakGFLOPS(n.FGHz)
	}
	return s
}
