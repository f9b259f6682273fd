package interconnect

import (
	"math"
	"testing"

	"mobilehpc/internal/sim"
	"mobilehpc/internal/soc"
)

func usWithin(t *testing.T, name string, gotSec, wantUS, tolUS float64) {
	t.Helper()
	got := gotSec * 1e6
	if math.Abs(got-wantUS) > tolUS {
		t.Errorf("%s: latency = %.1f µs, want %.1f ± %.1f", name, got, wantUS, tolUS)
	}
}

// Figure 7 top row: small-message one-way latencies.
func TestFig7Latencies(t *testing.T) {
	t2 := soc.Tegra2()
	ex := soc.Exynos5250()
	cases := []struct {
		name   string
		e      Endpoint
		wantUS float64
	}{
		{"Tegra2 TCP/IP", Endpoint{t2, 1.0, TCPIP()}, 100},
		{"Tegra2 Open-MX", Endpoint{t2, 1.0, OpenMX()}, 65},
		{"Exynos5 TCP/IP 1.0GHz", Endpoint{ex, 1.0, TCPIP()}, 125},
		{"Exynos5 Open-MX 1.0GHz", Endpoint{ex, 1.0, OpenMX()}, 93},
		{"Exynos5 TCP/IP 1.4GHz", Endpoint{ex, 1.4, TCPIP()}, 112.5},
		{"Exynos5 Open-MX 1.4GHz", Endpoint{ex, 1.4, OpenMX()}, 83.7},
	}
	for _, c := range cases {
		usWithin(t, c.name, OneWayLatency(c.e, 0, 1.0), c.wantUS, 3.0)
	}
}

// §4.1: raising Exynos frequency 1.0 -> 1.4 GHz cuts latency ~10 %.
func TestFrequencyCutsLatencyTenPercent(t *testing.T) {
	ex := soc.Exynos5250()
	for _, proto := range []Protocol{TCPIP(), OpenMX()} {
		l10 := OneWayLatency(Endpoint{ex, 1.0, proto}, 32, 1.0)
		l14 := OneWayLatency(Endpoint{ex, 1.4, proto}, 32, 1.0)
		drop := 1 - l14/l10
		if drop < 0.05 || drop > 0.18 {
			t.Errorf("%s: frequency latency drop = %.1f%%, want ~10%%", proto.Name, drop*100)
		}
	}
}

// Figure 7 bottom row: large-message effective bandwidth, MB/s.
func TestFig7Bandwidths(t *testing.T) {
	t2 := soc.Tegra2()
	ex := soc.Exynos5250()
	const m = 16 << 20
	cases := []struct {
		name string
		e    Endpoint
		want float64
		tol  float64
	}{
		{"Tegra2 TCP/IP", Endpoint{t2, 1.0, TCPIP()}, 65, 4},
		{"Tegra2 Open-MX", Endpoint{t2, 1.0, OpenMX()}, 117, 5},
		{"Exynos5 TCP/IP 1.0", Endpoint{ex, 1.0, TCPIP()}, 63, 4},
		{"Exynos5 Open-MX 1.0", Endpoint{ex, 1.0, OpenMX()}, 69, 5},
		{"Exynos5 Open-MX 1.4", Endpoint{ex, 1.4, OpenMX()}, 75, 7},
	}
	for _, c := range cases {
		got := EffectiveBandwidth(c.e, m, 1.0)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: bandwidth = %.1f MB/s, want %.0f ± %.0f", c.name, got, c.want, c.tol)
		}
	}
}

// §4.1 calibration of the ping-pong endpoints: Tegra 2 at 1 GHz
// reaches ~100 µs one-way over TCP/IP and ~117 MB/s over Open-MX.
func TestPingPongMatchesPaper(t *testing.T) {
	e := Endpoint{Platform: soc.Tegra2(), FGHz: 1.0, Proto: TCPIP()}
	if lat := OneWayLatency(e, 0, 1.0); math.Abs(lat*1e6-100) > 3 {
		t.Errorf("Tegra2 TCP latency = %.1f µs, want ~100", lat*1e6)
	}
	e.Proto = OpenMX()
	if bw := EffectiveBandwidth(e, 16<<20, 1.0); math.Abs(bw-117) > 5 {
		t.Errorf("Tegra2 Open-MX bandwidth = %.1f MB/s, want ~117", bw)
	}
}

func TestBandwidthBelowLinkMax(t *testing.T) {
	// No configuration may exceed the 125 MB/s 1GbE ceiling.
	for _, p := range soc.All() {
		for _, proto := range []Protocol{TCPIP(), OpenMX()} {
			bw := EffectiveBandwidth(Endpoint{p, p.MaxFreq(), proto}, 16<<20, 1.0)
			if bw > 125 {
				t.Errorf("%s/%s: bandwidth %.1f exceeds link max", p.Name, proto.Name, bw)
			}
			if bw <= 0 {
				t.Errorf("%s/%s: non-positive bandwidth", p.Name, proto.Name)
			}
		}
	}
}

func TestOpenMXBeatsTCP(t *testing.T) {
	for _, p := range []*soc.Platform{soc.Tegra2(), soc.Exynos5250()} {
		for _, m := range []int{0, 64, 4096, 1 << 20} {
			ltcp := OneWayLatency(Endpoint{p, 1.0, TCPIP()}, m, 1.0)
			lomx := OneWayLatency(Endpoint{p, 1.0, OpenMX()}, m, 1.0)
			if lomx >= ltcp {
				t.Errorf("%s m=%d: Open-MX (%.1fµs) not faster than TCP (%.1fµs)",
					p.Name, m, lomx*1e6, ltcp*1e6)
			}
		}
	}
}

func TestRendezvousKicksInAbove32K(t *testing.T) {
	e := Endpoint{soc.Tegra2(), 1.0, OpenMX()}
	below := OneWayLatency(e, 32<<10, 1.0)
	above := OneWayLatency(e, 32<<10+1, 1.0)
	extra := (above - below) * 1e6
	if extra < e.SoftwareLatencyUS() {
		t.Errorf("rendezvous handshake not visible: extra = %.1f µs", extra)
	}
}

func TestSendRecvCostsSplitLatency(t *testing.T) {
	e := Endpoint{soc.Tegra2(), 1.0, TCPIP()}
	total := e.SendCost(0) + e.RecvCost(0)
	if math.Abs(total-e.SoftwareLatencyUS()*1e-6) > 1e-9 {
		t.Error("send+recv cost must equal one-way software latency for empty message")
	}
}

func TestLinkTransferSerializes(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1.0) // 1 Gb/s: 1 MB takes 8 ms
	var done []float64
	for i := 0; i < 3; i++ {
		e.Go("tx", func(p *sim.Proc) {
			l.Transfer(p, 1<<20)
			done = append(done, p.Now())
		})
	}
	e.RunAll()
	if len(done) != 3 {
		t.Fatalf("transfers completed: %d", len(done))
	}
	st := l.SerializationTime(1 << 20)
	for i, d := range done {
		want := float64(i+1) * st
		if math.Abs(d-want) > 1e-9 {
			t.Errorf("transfer %d finished at %v, want %v", i, d, want)
		}
	}
}

func TestSingleSwitchRoutes(t *testing.T) {
	e := sim.NewEngine()
	n := SingleSwitch(e, 4, 1.0, 2.0)
	if got := len(n.Route(0, 3)); got != 2 {
		t.Errorf("star route length = %d, want 2", got)
	}
	if n.Route(2, 2) != nil {
		t.Error("self-route must be empty")
	}
	if n.PathHops(0, 1) != 1 {
		t.Errorf("star hops = %d, want 1", n.PathHops(0, 1))
	}
}

func TestTreeTopologyHops(t *testing.T) {
	e := sim.NewEngine()
	// Tibidabo shape: 192 nodes, 48-port leaves.
	n := Tree(e, 192, 48, 1.0, 4.0, 2.0)
	if hops := n.PathHops(0, 1); hops != 1 {
		t.Errorf("same-leaf hops = %d, want 1", hops)
	}
	// Max latency of three hops (leaf -> core -> leaf).
	if hops := n.PathHops(0, 191); hops != 3 {
		t.Errorf("cross-leaf hops = %d, want 3", hops)
	}
	if bis := BisectionGbps(192, 48, 4.0); bis != 8.0 {
		t.Errorf("bisection = %v Gb/s, want 8", bis)
	}
}

func TestNetworkDeliverTiming(t *testing.T) {
	e := sim.NewEngine()
	n := SingleSwitch(e, 2, 1.0, 5.0)
	var at float64
	e.Go("msg", func(p *sim.Proc) {
		n.Deliver(p, 0, 1, 125000) // 1 ms per link at 1 Gb/s
		at = p.Now()
	})
	e.RunAll()
	want := 2*0.001 + 5e-6
	if math.Abs(at-want) > 1e-9 {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

func TestRouteOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine()
	n := SingleSwitch(e, 2, 1.0, 1.0)
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range route")
		}
	}()
	n.Route(0, 5)
}

func TestTrunkContention(t *testing.T) {
	// Two cross-leaf flows share one trunk; same-leaf flow does not.
	e := sim.NewEngine()
	n := Tree(e, 96, 48, 1.0, 1.0, 0)
	var crossDone, localDone float64
	const m = 1 << 20
	e.Go("cross1", func(p *sim.Proc) { n.Deliver(p, 0, 50, m) })
	e.Go("cross2", func(p *sim.Proc) { n.Deliver(p, 1, 51, m); crossDone = p.Now() })
	e.Go("local", func(p *sim.Proc) { n.Deliver(p, 2, 3, m); localDone = p.Now() })
	e.RunAll()
	if crossDone <= localDone {
		t.Errorf("trunk contention missing: cross %.4f <= local %.4f", crossDone, localDone)
	}
}

func TestChunkedTransferIsFair(t *testing.T) {
	// Two 1 MiB flows share one link. Whole-message granularity: the
	// first finishes at t, the second at 2t. 64 KiB chunks: both finish
	// together at ~2t (fair interleaving).
	run := func(chunk int) (first, second float64) {
		e := sim.NewEngine()
		n := SingleSwitch(e, 3, 1.0, 0)
		n.ChunkBytes = chunk
		var t1, t2 float64
		e.Go("a", func(p *sim.Proc) { n.Deliver(p, 0, 2, 1<<20); t1 = p.Now() })
		e.Go("b", func(p *sim.Proc) { n.Deliver(p, 1, 2, 1<<20); t2 = p.Now() })
		e.RunAll()
		return t1, t2
	}
	// Whole messages: the loser waits for the winner's full transfer
	// on the shared down-link (1.5x the winner's completion time).
	f1, f2 := run(0)
	if f2 < f1*1.4 {
		t.Errorf("message granularity: flows at %v and %v, want serialised", f1, f2)
	}
	// Chunked: both flows interleave on the shared link and finish
	// within a chunk of each other (the shared link still carries the
	// same total bytes, so fairness slows the winner rather than
	// speeding the loser).
	c1, c2 := run(64 << 10)
	if math.Abs(c1-c2) > 0.002 {
		t.Errorf("chunked: flows finish at %v and %v, want ~equal", c1, c2)
	}
	if c1 <= f1*1.2 {
		t.Errorf("chunked winner (%v) should be slowed toward the fair share (whole-msg winner %v)", c1, f1)
	}
}

func TestChunkedDegeneratesToWhole(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1.0)
	var done float64
	e.Go("tx", func(p *sim.Proc) {
		l.TransferChunked(p, 1<<20, 0)
		done = p.Now()
	})
	e.RunAll()
	if math.Abs(done-l.SerializationTime(1<<20)) > 1e-12 {
		t.Errorf("chunk=0 transfer took %v", done)
	}
}
