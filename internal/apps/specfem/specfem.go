// Package specfem reproduces the SPECFEM3D entry of Table 3: seismic
// wave propagation with the spectral-element method. The real numerics
// are a 1-D elastic wave equation discretised with degree-4 spectral
// elements on Gauss–Lobatto–Legendre points and explicit Newmark time
// stepping; the domain is partitioned into contiguous element ranges
// per rank, and each step exchanges a single shared boundary value
// with each neighbour. Because per-element computation dwarfs the
// 8-byte boundary exchange, the benchmark scales almost ideally —
// "SPECFEM3D shows good strong scaling" (Figure 6).
package specfem

import (
	"math"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/mpi"
	"mobilehpc/internal/perf"
)

// Degree-4 GLL points and weights on [-1, 1].
var (
	gllX = [5]float64{-1, -math.Sqrt(3.0 / 7.0), 0, math.Sqrt(3.0 / 7.0), 1}
	gllW = [5]float64{0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1}
)

// lagrangeDeriv[i][j] = l_i'(x_j): derivative matrix of the Lagrange
// basis at the GLL points, computed once at init.
var lagrangeDeriv [5][5]float64

func init() {
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			lagrangeDeriv[i][j] = dLagrange(i, gllX[j])
		}
	}
}

// dLagrange evaluates l_i'(x) for the degree-4 GLL basis.
func dLagrange(i int, x float64) float64 {
	sum := 0.0
	for m := 0; m < 5; m++ {
		if m == i {
			continue
		}
		prod := 1.0
		for k := 0; k < 5; k++ {
			if k == i || k == m {
				continue
			}
			prod *= (x - gllX[k]) / (gllX[i] - gllX[k])
		}
		sum += prod / (gllX[i] - gllX[m])
	}
	return sum
}

// Mesh is the assembled 1-D spectral-element mesh: E elements share
// boundary nodes, 4E+1 global points.
type Mesh struct {
	E          int
	U, V, A    []float64 // displacement, velocity, acceleration
	Mass       []float64 // assembled diagonal mass matrix
	h          float64   // element size
	c2         float64   // wave speed squared
	forceElem  int
	forceNode  int
	sourceAmp  float64
	sourceFreq float64
}

// NewMesh builds a mesh of e elements on [0, 1] with unit wave speed
// and a Ricker-like source in the centre element.
func NewMesh(e int) *Mesh {
	n := 4*e + 1
	m := &Mesh{
		E: e, U: make([]float64, n), V: make([]float64, n), A: make([]float64, n),
		Mass: make([]float64, n), h: 1 / float64(e), c2: 1.0,
		forceElem: e / 2, forceNode: 2, sourceAmp: 1.0, sourceFreq: 8.0,
	}
	jac := m.h / 2
	for el := 0; el < e; el++ {
		for i := 0; i < 5; i++ {
			m.Mass[4*el+i] += gllW[i] * jac
		}
	}
	return m
}

// Points returns the global DOF count.
func (m *Mesh) Points() int { return len(m.U) }

// internalForce computes -K u for elements [elo, ehi) and accumulates
// into acc (must be zeroed over the touched range by the caller).
func (m *Mesh) internalForce(acc []float64, elo, ehi int) {
	jac := m.h / 2
	for el := elo; el < ehi; el++ {
		base := 4 * el
		// Strain at each GLL point: du/dx = sum_i u_i l_i'(x_j) / jac.
		var grad [5]float64
		for j := 0; j < 5; j++ {
			g := 0.0
			for i := 0; i < 5; i++ {
				g += m.U[base+i] * lagrangeDeriv[i][j]
			}
			grad[j] = g / jac
		}
		// Internal force: f_i = -sum_j w_j c^2 grad_j l_i'(x_j) / jac * jac.
		for i := 0; i < 5; i++ {
			f := 0.0
			for j := 0; j < 5; j++ {
				f += gllW[j] * m.c2 * grad[j] * lagrangeDeriv[i][j]
			}
			acc[base+i] -= f
		}
	}
}

// Energy returns the total (kinetic + strain) energy — conserved after
// the source switches off, the package's correctness invariant.
func (m *Mesh) Energy() float64 {
	jac := m.h / 2
	e := 0.0
	for i, v := range m.V {
		e += 0.5 * m.Mass[i] * v * v
	}
	for el := 0; el < m.E; el++ {
		base := 4 * el
		for j := 0; j < 5; j++ {
			g := 0.0
			for i := 0; i < 5; i++ {
				g += m.U[base+i] * lagrangeDeriv[i][j]
			}
			g /= jac
			e += 0.5 * gllW[j] * m.c2 * g * g * jac
		}
	}
	return e
}

// Config describes one SPECFEM run.
type Config struct {
	// Elements is the model-scale element count (timing).
	Elements int
	// Steps is the number of time steps.
	Steps int
	// RealElements is the actually-integrated mesh size (0 = min(…, 64)).
	RealElements int
	// SourceSteps is how long the source drives the mesh.
	SourceSteps int
	// Threads is cores used per node.
	Threads int
}

func (c *Config) fill() {
	if c.Steps == 0 {
		c.Steps = 60
	}
	if c.RealElements == 0 {
		c.RealElements = c.Elements
		if c.RealElements > 64 {
			c.RealElements = 64
		}
	}
	if c.SourceSteps == 0 {
		c.SourceSteps = c.Steps / 4
	}
	if c.Threads == 0 {
		c.Threads = 2
	}
}

// Result summarises a run.
type Result struct {
	Nodes      int
	Elapsed    float64
	EnergyInit float64 // energy right after the source stops
	EnergyEnd  float64 // final energy (should match EnergyInit)
	MaxU       float64 // peak displacement, sanity value
}

// stepProfile shapes one rank's per-step element work: dense small
// matrix products, very compute-heavy (the reason SPECFEM scales).
func stepProfile(elems float64) perf.Profile {
	return perf.Profile{
		Kernel: "specfem-step", Flops: elems * 5800, Bytes: elems * 400,
		SIMDFraction: 0.9, Irregularity: 0.05,
		ParallelFraction: 0.99, Pattern: perf.Blocked,
	}
}

// Run executes the strong-scaling SPECFEM benchmark on `nodes` ranks
// with a uniform element split.
func Run(cl *cluster.Cluster, nodes int, cfg Config) Result {
	return RunWeighted(cl, nodes, cfg, nil)
}

// RunWeighted is Run with an explicit work distribution: rank i is
// assigned a share of the model-scale elements proportional to
// weights[i] (nil = uniform). Weighted decomposition is how a
// heterogeneous machine (the §2 FAWN follow-up scenario) keeps its
// fast nodes from idling at every assembly step.
func RunWeighted(cl *cluster.Cluster, nodes int, cfg Config, weights []float64) Result {
	cfg.fill()
	if cfg.Elements <= 0 {
		panic("specfem: config needs Elements")
	}
	if weights != nil && len(weights) != nodes {
		panic("specfem: weights length mismatch")
	}
	mesh := NewMesh(cfg.RealElements)
	dt := 0.01 * mesh.h // well inside CFL for unit speed and degree-4 GLL spacing
	force := make([]float64, mesh.Points())

	shares := make([]float64, nodes)
	if weights == nil {
		for i := range shares {
			shares[i] = float64(cfg.Elements) / float64(nodes)
		}
	} else {
		sum := 0.0
		for _, w := range weights {
			if w <= 0 {
				panic("specfem: non-positive weight")
			}
			sum += w
		}
		for i, w := range weights {
			shares[i] = float64(cfg.Elements) * w / sum
		}
	}
	bounds := make([][2]int, nodes)
	for i := range bounds {
		bounds[i] = [2]int{i * cfg.RealElements / nodes, (i + 1) * cfg.RealElements / nodes}
	}

	var elapsed float64
	var eInit float64
	mpi.Run(cl, nodes, func(r *mpi.Rank) {
		me := r.ID()
		elo, ehi := bounds[me][0], bounds[me][1]
		for step := 0; step < cfg.Steps; step++ {
			// Phase 1: rank 0 clears the assembly buffer; everyone
			// waits so no contribution can be lost. Host-side only —
			// the real code zeroes rank-private buffers.
			r.HostSync()
			if me == 0 {
				for i := range force {
					force[i] = 0
				}
			}
			r.HostSync()
			// Phase 2: every rank assembles internal forces for its
			// own elements; contributions to shared boundary DOFs
			// accumulate from both sides, as in real SEM assembly.
			// (The simulation runs one goroutine at a time with
			// coroutine switches, so += on shared DOFs is ordered.)
			if ehi > elo {
				mesh.internalForce(force, elo, ehi)
			}
			// Threads caps core usage; heterogeneous nodes each use at
			// most their own core count.
			th := cfg.Threads
			if c := r.Node().Platform.Cores; th > c {
				th = c
			}
			r.ComputeWork(stepProfile(shares[me]), th)

			// Exchange assembled boundary contributions with
			// neighbours: one shared DOF per interface (8 bytes) — the
			// tiny messages that keep SPECFEM communication-light.
			if nodes > 1 {
				// Parity-ordered neighbour exchange: even interfaces
				// first, then odd, so all pairs proceed concurrently
				// instead of forming an O(P) serial chain.
				if me%2 == 0 {
					if me < nodes-1 {
						r.SendRecv(me+1, 1, nil, 8)
					}
					if me > 0 {
						r.SendRecv(me-1, 2, nil, 8)
					}
				} else {
					r.SendRecv(me-1, 1, nil, 8)
					if me < nodes-1 {
						r.SendRecv(me+1, 2, nil, 8)
					}
				}
			}

			// Rank 0 integrates the real mesh one explicit step
			// (shared-memory realisation; the distributed data flow
			// was charged above). Host-side synchronisation only.
			r.HostSync()
			if me == 0 {
				if step < cfg.SourceSteps {
					src := 4*mesh.forceElem + mesh.forceNode
					force[src] += mesh.sourceAmp *
						math.Sin(2*math.Pi*mesh.sourceFreq*float64(step)*dt)
				}
				for i := range mesh.U {
					mesh.A[i] = force[i] / mesh.Mass[i]
					mesh.V[i] += dt * mesh.A[i]
					mesh.U[i] += dt * mesh.V[i]
				}
				if step == cfg.SourceSteps {
					eInit = mesh.Energy()
				}
			}
			r.HostSync()
		}
		if me == 0 {
			elapsed = r.Now()
		}
	})

	maxU := 0.0
	for _, u := range mesh.U {
		if a := math.Abs(u); a > maxU {
			maxU = a
		}
	}
	return Result{
		Nodes:      nodes,
		Elapsed:    elapsed,
		EnergyInit: eInit,
		EnergyEnd:  mesh.Energy(),
		MaxU:       maxU,
	}
}
