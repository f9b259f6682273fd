// Package mobilehpc's top-level benchmarks cover what the repository
// benchmark (bench/) cannot see: the task-latency quantiles of the
// harness pool, the real kernels on the host, and ablations of the
// design choices in DESIGN.md. The registry experiments themselves are
// timed by bench/'s registry-full workload and pinned by the goldens.
package mobilehpc

import (
	"io"
	"testing"

	"mobilehpc/internal/apps/hpl"
	"mobilehpc/internal/cluster"
	"mobilehpc/internal/harness"
	"mobilehpc/internal/interconnect"
	"mobilehpc/internal/kernels"
	"mobilehpc/internal/linalg"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
	"mobilehpc/internal/soc"
	"mobilehpc/internal/stream"
)

// BenchmarkPoolTaskLatency runs the full quick registry with a live
// collector attached and reports the task-latency quantiles the
// histogram plane records: the evidence for how finely the histograms
// resolve a regression. ns/op here is the instrumented registry time;
// the custom metrics are the observability payload.
func BenchmarkPoolTaskLatency(b *testing.B) {
	var p50, p99 float64
	for i := 0; i < b.N; i++ {
		c := obs.New()
		obs.SetActive(c)
		sim.SetDefaultObserver(obs.NewSimObserver(c))
		err := harness.RunAll(io.Discard, harness.Options{Quick: true, Jobs: 4})
		sim.SetDefaultObserver(nil)
		obs.SetActive(nil)
		if err != nil {
			b.Fatal(err)
		}
		h := c.Histogram("pool.task_latency_ns")
		p50, p99 = h.Quantile(0.50), h.Quantile(0.99)
	}
	b.ReportMetric(p50, "task_p50_ns")
	b.ReportMetric(p99, "task_p99_ns")
}

// ---- native-code micro-benchmarks: the real kernels on the host ----

func BenchmarkKernelsNative(b *testing.B) {
	sizes := map[string]int{
		"vecop": 1 << 16, "dmmm": 128, "3dstc": 32, "2dcon": 256,
		"fft": 1 << 16, "red": 1 << 18, "hist": 1 << 18, "msort": 1 << 15,
		"nbody": 512, "amcd": 5000, "spvm": 8192,
	}
	for _, k := range kernels.Suite() {
		k := k
		b.Run(k.Tag(), func(b *testing.B) {
			n := sizes[k.Tag()]
			for i := 0; i < b.N; i++ {
				k.Run(n)
			}
		})
		b.Run(k.Tag()+"-parallel", func(b *testing.B) {
			n := sizes[k.Tag()]
			for i := 0; i < b.N; i++ {
				k.RunParallel(n, 4)
			}
		})
	}
}

func BenchmarkStreamNative(b *testing.B) {
	for _, op := range stream.Ops {
		op := op
		b.Run(op.String(), func(b *testing.B) {
			n := 1 << 20
			b.SetBytes(int64(n * op.BytesPerElem()))
			for i := 0; i < b.N; i++ {
				stream.RunNative(op, n, 1)
			}
		})
	}
}

// ---- ablation benches for the design choices in DESIGN.md ----

// Blocked vs naive dgemm (the HPL update path).
func BenchmarkGemmBlockedVsNaive(b *testing.B) {
	n := 192
	a, x := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	a.FillRandom(1)
	x.FillRandom(2)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := linalg.NewMatrix(n, n)
			linalg.Gemm(a, x, c)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := linalg.NewMatrix(n, n)
			linalg.GemmNaive(a, x, c)
		}
	})
}

// TCP/IP vs Open-MX on the modelled fabric: simulated HPL efficiency.
func BenchmarkProtocolAblationHPL(b *testing.B) {
	for _, proto := range []interconnect.Protocol{interconnect.TCPIP(), interconnect.OpenMX()} {
		proto := proto
		b.Run(proto.Name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				cfg := cluster.Config{
					Nodes: 16, Platform: soc.Tegra2, FGHz: 1.0, Proto: proto,
					LinkGbps: 1.0, SwitchLatUS: 2.0,
				}
				cl := cluster.New(cfg)
				r := hpl.Run(cl, 16, hpl.Config{N: 32768, RealN: 64})
				eff = r.Efficiency
			}
			b.ReportMetric(eff*100, "hpl_eff_pct")
		})
	}
}

// Rendezvous threshold sensitivity: one-way time for a 64 KiB message.
func BenchmarkRendezvousThreshold(b *testing.B) {
	for _, th := range []int{0, 16 << 10, 32 << 10, 128 << 10} {
		th := th
		name := "none"
		if th > 0 {
			name = (map[int]string{16 << 10: "16KiB", 32 << 10: "32KiB", 128 << 10: "128KiB"})[th]
		}
		b.Run(name, func(b *testing.B) {
			proto := interconnect.OpenMX()
			proto.RendezvousBytes = th
			e := interconnect.Endpoint{Platform: soc.Tegra2(), FGHz: 1.0, Proto: proto}
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = interconnect.OneWayLatency(e, 64<<10, 1.0)
			}
			b.ReportMetric(lat*1e6, "us_64KiB")
		})
	}
}
