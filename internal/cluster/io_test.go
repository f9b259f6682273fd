package cluster

import (
	"math"
	"testing"
)

func TestParallelIOTimesOutBeyondFloor(t *testing.T) {
	nfs := TibidaboNFS()
	const perNode = 64 << 20
	if _, to := nfs.IOPhaseParallel(8, perNode); to {
		t.Error("8-node parallel I/O should fit in the timeout")
	}
	if _, to := nfs.IOPhaseParallel(96, perNode); !to {
		t.Error("96-node parallel I/O must time out (§6.2 crash mode)")
	}
}

func TestSerializedIONeverTimesOutForSaneSizes(t *testing.T) {
	nfs := TibidaboNFS()
	for _, n := range []int{8, 96, 192} {
		if _, to := nfs.IOPhaseSerialized(n, 64<<20); to {
			t.Errorf("%d nodes: serialized I/O timed out", n)
		}
	}
}

func TestIOTotalTimeEqualEitherWay(t *testing.T) {
	// The server link is the bottleneck: serializing trades crashes for
	// the same total time (the paper's workaround costs nothing extra
	// in aggregate, it just limits scalability).
	nfs := TibidaboNFS()
	pt, _ := nfs.IOPhaseParallel(64, 64<<20)
	st, _ := nfs.IOPhaseSerialized(64, 64<<20)
	if math.Abs(pt-st) > 1e-9 {
		t.Errorf("parallel %v vs serialized %v", pt, st)
	}
}

func TestMaxNodesParallelIO(t *testing.T) {
	nfs := TibidaboNFS()
	maxN := nfs.MaxNodesParallelIO(64 << 20)
	if maxN != 11 {
		t.Errorf("max parallel-I/O nodes at 64 MiB each = %d, want 11", maxN)
	}
	if _, to := nfs.IOPhaseParallel(maxN, 64<<20); to {
		t.Errorf("max node count %d still times out", maxN)
	}
	if _, to := nfs.IOPhaseParallel(maxN+1, 64<<20); !to {
		t.Errorf("%d nodes should exceed the timeout", maxN+1)
	}
}

func TestIOPanics(t *testing.T) {
	nfs := TibidaboNFS()
	for i, fn := range []func(){
		func() { nfs.IOPhaseParallel(0, 1) },
		func() { nfs.IOPhaseSerialized(-1, 1) },
		func() { nfs.MaxNodesParallelIO(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}
