package faults

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/obs"
	"mobilehpc/internal/reliability"
	"mobilehpc/internal/sim"
)

func tibParams(seed uint64, horizon, clusterMTBF float64, nodes int) Params {
	// Split the target cluster MTBF evenly between the two fatal
	// processes so both the memory-event and hang streams are
	// exercised: each contributes rate 1/(2*MTBF).
	return Params{
		Nodes:        nodes,
		HorizonHours: horizon,
		MemMTBFHours: 2 * clusterMTBF,
		Stability: reliability.NodeStability{
			HangsPerNodeDay: 24 / (2 * clusterMTBF * float64(nodes)),
		},
		Seed: seed,
	}
}

func TestScheduleDeterministicAndValid(t *testing.T) {
	p := tibParams(42, 5000, 100, 8)
	p.LinkMTBFHours = 300
	a, b := Generate(p), Generate(p)
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same params produced different schedules")
	}
	if a.String() != b.String() {
		t.Fatal("same params produced different canonical strings")
	}
	fails, hangs, degrades := a.CountByKind()
	if fails == 0 || hangs == 0 || degrades == 0 {
		t.Fatalf("expected all kinds over 5000h: fails=%d hangs=%d degrades=%d", fails, hangs, degrades)
	}
	// Fatal-event count should be near horizon/MTBF = 50.
	if fatal := fails + hangs; fatal < 25 || fatal > 100 {
		t.Errorf("fatal events = %d, want ~50", fatal)
	}
	p2 := p
	p2.Seed = 43
	if Generate(p2).String() == a.String() {
		t.Error("different seeds produced identical schedules")
	}
}

func TestParamsClusterMTBF(t *testing.T) {
	p := tibParams(1, 100, 80, 16)
	if got := p.ClusterMTBFHours(); math.Abs(got-80) > 1e-9 {
		t.Errorf("combined MTBF = %v, want 80", got)
	}
	// LinkDegrade events must not count toward the fatal MTBF.
	p.LinkMTBFHours = 10
	if got := p.ClusterMTBFHours(); math.Abs(got-80) > 1e-9 {
		t.Errorf("MTBF with degrades = %v, want 80 (degrades are not fatal)", got)
	}
	if got := (Params{Nodes: 4, HorizonHours: 1}).ClusterMTBFHours(); !math.IsInf(got, 1) {
		t.Errorf("fault-free MTBF = %v, want +Inf", got)
	}
}

func TestGenerateRejectsAbsurdParams(t *testing.T) {
	cases := map[string]Params{
		"no nodes":        {Nodes: 0, HorizonHours: 1},
		"zero horizon":    {Nodes: 1, HorizonHours: 0},
		"inf horizon":     {Nodes: 1, HorizonHours: math.Inf(1)},
		"negative rate":   {Nodes: 1, HorizonHours: 1, MemMTBFHours: -1},
		"degrade < 1":     {Nodes: 1, HorizonHours: 1, DegradeFactor: 0.5},
		"event explosion": {Nodes: 1, HorizonHours: 1e9, MemMTBFHours: 1e-6},
	}
	for name, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Generate(p)
		}()
	}
}

// TestScheduleGolden pins the exact head of a fixed-seed schedule so
// any change to the generator's arithmetic is caught, not just
// structural drift.
func TestScheduleGolden(t *testing.T) {
	p := tibParams(7, 400, 50, 4)
	p.LinkMTBFHours = 100
	s := Generate(p)
	if len(s) < 4 {
		t.Fatalf("schedule too short for golden check: %d events", len(s))
	}
	got := Schedule(s[:4]).String()
	const want = "t=55.83716338080479h n3 node_hang\n" +
		"t=83.81417026160253h n2 link_degrade x4\n" +
		"t=96.89245743729649h n2 node_hang\n" +
		"t=103.31040379131679h n1 node_hang\n"
	if got != want {
		t.Errorf("golden schedule head changed:\n got:\n%s want:\n%s", got, want)
	}
}

// TestReplayConvergesToCheckpointEfficiency is the closing-the-loop
// property test: across a grid of (MTBF, checkpoint cost, interval),
// the mean useful-work fraction of fault-injected replays converges
// to the analytic CheckpointEfficiency prediction, and the error
// shrinks (or at least does not grow) as trials accumulate.
func TestReplayConvergesToCheckpointEfficiency(t *testing.T) {
	trials := 1000
	tol := 0.02
	if testing.Short() {
		trials, tol = 150, 0.04
	}
	grid := []struct {
		mtbf, ckpt, scale float64
	}{
		{100, 0.1, 1},   // Young's optimum
		{300, 0.05, 1},  // rarer faults, cheaper checkpoints
		{100, 0.2, 2},   // over-long interval: rework dominates
		{200, 0.1, 0.5}, // over-eager interval: checkpoint cost dominates
	}
	const nodes, restart = 8, 0.05
	for g, c := range grid {
		c := c
		t.Run(fmt.Sprintf("mtbf=%v/c=%v/x%v", c.mtbf, c.ckpt, c.scale), func(t *testing.T) {
			interval := reliability.OptimalCheckpointHours(c.ckpt, c.mtbf) * c.scale
			analytic := reliability.CheckpointEfficiency(interval, c.ckpt, restart, c.mtbf)
			work := 200 * interval
			cfg := RunConfig{
				WorkHours: work, IntervalHours: interval,
				CheckpointHours: c.ckpt, RestartHours: restart,
			}
			sum, sumQuarter := 0.0, 0.0
			for i := 0; i < trials; i++ {
				p := tibParams(Mix(uint64(1000*g+7), i), 3*work, c.mtbf, nodes)
				r := Replay(cluster.Tibidabo(nodes), Generate(p), cfg)
				sum += r.UsefulFraction
				if i < trials/4 {
					sumQuarter += r.UsefulFraction
				}
			}
			mean := sum / float64(trials)
			if err := math.Abs(mean - analytic); err > tol {
				t.Errorf("simulated efficiency %v vs analytic %v: |err| %v > %v at %d trials",
					mean, analytic, err, tol, trials)
			}
			// Convergence: the full-sample estimate must be at least as
			// close as the quarter-sample one, within sampling slack.
			quarter := sumQuarter / float64(trials/4)
			if math.Abs(mean-analytic) > math.Abs(quarter-analytic)+tol/2 {
				t.Errorf("error grew with trials: quarter %v, full %v (analytic %v)",
					quarter, mean, analytic)
			}
		})
	}
}

// TestReplayGoldenRegression pins exact fixed-seed replay results.
func TestReplayGoldenRegression(t *testing.T) {
	const mtbf, ckpt, restart = 100.0, 0.1, 0.05
	interval := reliability.OptimalCheckpointHours(ckpt, mtbf)
	cfg := RunConfig{
		WorkHours: 50 * interval, IntervalHours: interval,
		CheckpointHours: ckpt, RestartHours: restart,
	}
	p := tibParams(12345, 3*cfg.WorkHours, mtbf, 8)
	p.LinkMTBFHours = 500
	r := Replay(cluster.Tibidabo(8), Generate(p), cfg)
	got := fmt.Sprintf("makespan=%.9fh useful=%.9f ckpts=%d restarts=%d failures=%d degrades=%d lost=%.9fh",
		r.MakespanHours, r.UsefulFraction, r.Checkpoints, r.Restarts, r.Failures, r.Degrades, r.LostHours)
	const want = "makespan=232.419256418h useful=0.962083784 ckpts=50 restarts=1 failures=1 degrades=1 lost=3.762458668h"
	if got != want {
		t.Errorf("golden replay changed:\n got:  %s\n want: %s", got, want)
	}
}

func TestReplayDeterministic(t *testing.T) {
	cfg := RunConfig{WorkHours: 100, IntervalHours: 4, CheckpointHours: 0.1,
		RestartHours: 0.05, CommFraction: 0.3}
	p := tibParams(99, 400, 60, 8)
	p.LinkMTBFHours = 200
	run := func() RunResult { return Replay(cluster.Tibidabo(8), Generate(p), cfg) }
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different replay:\n %+v\n %+v", a, b)
	}
	if a.Failures == 0 {
		t.Error("wanted at least one fatal fault over 100h at MTBF 60h")
	}
	if a.MakespanHours <= cfg.WorkHours {
		t.Errorf("makespan %v <= work %v despite faults and checkpoints", a.MakespanHours, cfg.WorkHours)
	}
}

// TestReplayFaultFree pins the closed-form no-fault makespan:
// work + (segments-1) checkpoints.
func TestReplayFaultFree(t *testing.T) {
	cfg := RunConfig{WorkHours: 10, IntervalHours: 2, CheckpointHours: 0.25, RestartHours: 0.05}
	r := Replay(cluster.Tibidabo(2), nil, cfg)
	want := 10 + 4*0.25 // 5 segments, checkpoint after all but the last
	if math.Abs(r.MakespanHours-want) > 1e-9 || r.Checkpoints != 4 || r.Failures != 0 {
		t.Errorf("fault-free replay = %+v, want makespan %v, 4 checkpoints", r, want)
	}
	// Work shorter than one interval: no checkpoints at all.
	r = Replay(cluster.Tibidabo(2), nil, RunConfig{WorkHours: 1, IntervalHours: 2,
		CheckpointHours: 0.25, RestartHours: 0.05})
	if r.MakespanHours != 1 || r.Checkpoints != 0 {
		t.Errorf("sub-interval replay = %+v, want makespan 1, 0 checkpoints", r)
	}
}

// TestReplayLosesSegmentOnMidCheckpointFault: a fatal fault while the
// checkpoint is being written discards the whole segment.
func TestReplayLosesSegmentOnMidCheckpointFault(t *testing.T) {
	cfg := RunConfig{WorkHours: 4, IntervalHours: 2, CheckpointHours: 0.5, RestartHours: 0.25}
	// Segment 1 spans [0, 2], its checkpoint [2, 2.5]. Kill at 2.25h.
	sch := Schedule{{Hours: 2.25, Node: 0, Kind: NodeFail}}
	r := Replay(cluster.Tibidabo(2), sch, cfg)
	// Timeline: 2h work + 0.25h partial ckpt (lost) + 0.25h restart,
	// then clean 2h + 0.5h ckpt + 2h = makespan 7h.
	if math.Abs(r.MakespanHours-7) > 1e-9 {
		t.Errorf("makespan = %v, want 7", r.MakespanHours)
	}
	if r.Failures != 1 || r.Restarts != 1 || r.Checkpoints != 1 {
		t.Errorf("result = %+v, want 1 failure, 1 restart, 1 checkpoint", r)
	}
	if math.Abs(r.LostHours-2.25) > 1e-9 {
		t.Errorf("lost = %v, want 2.25 (segment + partial checkpoint)", r.LostHours)
	}
}

// TestReplayFaultDuringRestart: a fault mid-restart restarts the
// restart and only the aborted restart time is newly lost.
func TestReplayFaultDuringRestart(t *testing.T) {
	cfg := RunConfig{WorkHours: 2, IntervalHours: 2, CheckpointHours: 0.1, RestartHours: 1}
	sch := Schedule{
		{Hours: 1, Node: 0, Kind: NodeFail},   // kills segment at 1h
		{Hours: 1.5, Node: 1, Kind: NodeFail}, // kills the restart at 1.5h
	}
	r := Replay(cluster.Tibidabo(2), sch, cfg)
	// 1h lost work + 0.5h aborted restart + 1h restart + 2h clean work.
	if math.Abs(r.MakespanHours-4.5) > 1e-9 {
		t.Errorf("makespan = %v, want 4.5", r.MakespanHours)
	}
	if math.Abs(r.LostHours-1.5) > 1e-9 {
		t.Errorf("lost = %v, want 1.5", r.LostHours)
	}
	if r.Restarts != 1 || r.Failures != 2 {
		t.Errorf("result = %+v, want 1 completed restart, 2 failures", r)
	}
}

// TestReplayLinkDegradeStretchesWork: a degraded NIC stretches the
// communication share of in-flight and subsequent segments until a
// restart reboots the node.
func TestReplayLinkDegradeStretchesWork(t *testing.T) {
	cfg := RunConfig{WorkHours: 4, IntervalHours: 2, CheckpointHours: 0.5,
		RestartHours: 0.25, CommFraction: 0.5}
	// Degrade x3 at 1h: slowdown becomes 1 + 0.5*(3-1) = 2.
	sch := Schedule{{Hours: 1, Node: 0, Kind: LinkDegrade, Factor: 3}}
	r := Replay(cluster.Tibidabo(2), sch, cfg)
	// Segment 1: 1h at speed 1 + 2h for the remaining 1h of work = 3h,
	// ckpt 0.5h; segment 2 (still degraded — no reboot): 4h. Total 7.5h.
	if math.Abs(r.MakespanHours-7.5) > 1e-9 {
		t.Errorf("makespan = %v, want 7.5", r.MakespanHours)
	}
	if r.Degrades != 1 || r.Failures != 0 {
		t.Errorf("result = %+v, want 1 degrade, 0 failures", r)
	}
	// A compute-bound run (CommFraction 0) must be immune.
	cfg.CommFraction = 0
	r = Replay(cluster.Tibidabo(2), sch, cfg)
	if math.Abs(r.MakespanHours-4.5) > 1e-9 {
		t.Errorf("compute-bound makespan = %v, want 4.5", r.MakespanHours)
	}
}

// TestInjectorAppliesHooksAndTelemetry drives one event of each kind
// through a cluster and checks node state, NIC state, firing order,
// and the obs counters the manifest will carry.
func TestInjectorAppliesHooksAndTelemetry(t *testing.T) {
	col := obs.New()
	obs.SetActive(col)
	defer obs.SetActive(nil)

	cl := cluster.Tibidabo(4)
	sch := Schedule{
		{Hours: 1, Node: 0, Kind: NodeFail},
		{Hours: 2, Node: 1, Kind: NodeHang},
		{Hours: 3, Node: 2, Kind: LinkDegrade, Factor: 4},
	}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(cl, sch, nil)
	inj.Arm()
	cl.Eng.RunAll()

	if cl.Alive(0) || cl.Alive(1) || !cl.Alive(2) || !cl.Alive(3) {
		t.Errorf("node states after injection: alive = %v %v %v %v",
			cl.Alive(0), cl.Alive(1), cl.Alive(2), cl.Alive(3))
	}
	if f := cl.Net.NodeLinks(2)[0].DegradeFactor(); f != 4 {
		t.Errorf("degraded node link factor = %v, want 4", f)
	}
	if f := cl.Net.NodeLinks(1)[0].DegradeFactor(); f != cluster.HangDegradeFactor {
		t.Errorf("hung node link factor = %v, want %v", f, cluster.HangDegradeFactor)
	}
	if got := inj.Injected(); !reflect.DeepEqual(Schedule(got), sch) {
		t.Errorf("fired order = %v, want %v", got, sch)
	}
	for counter, want := range map[string]int64{
		"faults.injected": 3, "faults.node_fail": 1,
		"faults.node_hang": 1, "faults.link_degrade": 1,
	} {
		if got := col.Counter(counter).Value(); got != want {
			t.Errorf("counter %s = %d, want %d", counter, got, want)
		}
	}
}

// Under a live collector an injected fault opens no span — it
// allocates nothing beyond what the fault costs with telemetry off, so
// there is no name formatted and no span built for one nobody reads —
// while its counters still count; a buffering collector keeps the span.
func TestInjectorLiveCollectorSkipsFaultSpan(t *testing.T) {
	const n = 50
	ev := Event{Hours: 1, Node: 1, Kind: LinkDegrade, Factor: 2}
	allocsPerFault := func(col *obs.Collector) float64 {
		obs.SetActive(col)
		defer obs.SetActive(nil)
		inj := NewInjector(cluster.Tibidabo(2), nil, nil)
		inj.fired = make([]Event, 0, n+2)
		return testing.AllocsPerRun(n, func() { inj.fire(ev) })
	}
	off := allocsPerFault(nil)
	live, buffering := obs.NewLive(), obs.New()
	if a := allocsPerFault(live); a != off {
		t.Errorf("live collector: %v allocations per fault, want %v as with telemetry off", a, off)
	}
	if a := allocsPerFault(buffering); a <= off {
		t.Errorf("buffering collector: %v allocations per fault, want more than %v (the span)", a, off)
	}
	for _, col := range []*obs.Collector{live, buffering} {
		for _, name := range []string{"faults.injected", "faults.link_degrade"} {
			if got := col.Counter(name).Value(); got != n+1 {
				t.Errorf("%s = %d, want %d", name, got, n+1)
			}
		}
	}
}

// NewInjector refuses a schedule it cannot apply: an event on a node
// outside the cluster, or of a kind it does not know.
func TestNewInjectorRejectsBadEvents(t *testing.T) {
	for name, ev := range map[string]Event{
		"node": {Hours: 1, Node: 2, Kind: NodeFail},
		"kind": {Hours: 1, Node: 0, Kind: numKinds},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			NewInjector(cluster.Tibidabo(2), Schedule{ev}, nil)
		}()
	}
}

func TestInjectorDisarm(t *testing.T) {
	cl := cluster.Tibidabo(2)
	inj := NewInjector(cl, Schedule{{Hours: 1, Node: 0, Kind: NodeFail}}, nil)
	inj.Arm()
	inj.Disarm()
	cl.Eng.RunAll()
	if !cl.Alive(0) || len(inj.Injected()) != 0 {
		t.Errorf("disarmed event still fired: alive=%v fired=%v", cl.Alive(0), inj.Injected())
	}
}

// TestInjectedDegradeSlowsInFlightTransfer closes the interconnect
// loop: an in-flight bulk transfer on the simulated network takes
// measurably longer when a LinkDegrade lands mid-flight.
func TestInjectedDegradeSlowsInFlightTransfer(t *testing.T) {
	const msg = 1 << 26 // 64 MiB: ~0.54s on 1 GbE, so a 0.1s fault lands mid-flight
	run := func(sch Schedule) float64 {
		cl := cluster.Tibidabo(2)
		cl.Net.ChunkBytes = 64 << 10 // packetised so the degrade bites mid-message
		NewInjector(cl, sch, nil).Arm()
		end := 0.0
		cl.Eng.Go("sender", func(p *sim.Proc) {
			cl.Net.Deliver(p, 0, 1, msg)
			end = p.Now()
		})
		cl.Eng.RunAll()
		return end
	}
	clean := run(nil)
	degraded := run(Schedule{{Hours: 0.1 / 3600, Node: 1, Kind: LinkDegrade, Factor: 4}})
	if degraded <= clean*1.5 {
		t.Errorf("mid-flight degrade barely slowed the transfer: %v vs clean %v", degraded, clean)
	}
}
