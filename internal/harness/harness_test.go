package harness

import (
	"bytes"
	"strings"
	"testing"

	"mobilehpc/internal/obs"
)

func TestRegistryCoversEveryPaperArtefact(t *testing.T) {
	want := []string{"fig1", "fig2a", "fig2b", "table1", "table2", "table3",
		"fig3", "fig4", "fig5", "table4", "fig6", "fig7", "green500", "latpenalty",
		"projection", "reliability", "iobottleneck", "energycompare", "ablation-openmx",
		"bisection", "governor", "microserver", "accel", "green500-context", "stability",
		"balance", "fabric", "hpl-grid", "gromacs-inputs", "fig7sweep", "hetero", "placement", "metering", "ompss",
		"faultsweep"}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(have), len(want))
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig7")
	if err != nil || e.ID != "fig7" {
		t.Errorf("ByID(fig7) = %v, %v", e.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id did not error")
	}
}

func TestEveryExperimentProducesRows(t *testing.T) {
	for _, e := range Experiments() {
		if e.ID == "fig6" || e.ID == "green500" || e.ID == "ablation-openmx" ||
			e.ID == "energycompare" || e.ID == "green500-context" ||
			e.ID == "balance" || e.ID == "fabric" || e.ID == "hpl-grid" || e.ID == "gromacs-inputs" ||
			e.ID == "hetero" || e.ID == "placement" {
			continue // covered by TestClusterExperimentsQuick
		}
		tab := e.Run(Options{Quick: true})
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", e.ID)
		}
		if tab.ID != e.ID {
			t.Errorf("%s: table id %q", e.ID, tab.ID)
		}
		for i, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s row %d: %d cells for %d columns", e.ID, i, len(row), len(tab.Columns))
			}
		}
	}
}

func TestClusterExperimentsQuick(t *testing.T) {
	for _, id := range []string{"fig6", "green500", "ablation-openmx", "energycompare", "green500-context",
		"balance", "fabric", "hpl-grid", "gromacs-inputs", "fig7sweep", "hetero", "placement", "metering", "ompss",
		"faultsweep"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tab := e.Run(Options{Quick: true})
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo", Paper: "Figure 0",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRowf("%d|%s", 3, "four")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## x — demo", "Figure 0", "a  bb", "3  four", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "x", Columns: []string{"a", "b"}}
	tab.AddRow("1", "va,l")
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"va,l\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestAddRowPanicsOnArity(t *testing.T) {
	tab := &Table{ID: "x", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong cell count")
		}
	}()
	tab.AddRow("only one")
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	for _, e := range Experiments() {
		if !strings.Contains(buf.String(), "## "+e.ID) {
			t.Errorf("RunAll output missing %s", e.ID)
		}
	}
}

func TestFig6ShapesQuick(t *testing.T) {
	tab, err := ByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Run(Options{Quick: true})
	// At 16 vs 4 nodes, SPECFEM speedup must grow near-linearly and
	// all columns must be monotone non-decreasing.
	if len(out.Rows) < 2 {
		t.Fatalf("too few rows: %d", len(out.Rows))
	}
}

// Only hpl-grid's 2-D broadcasts leave collective copies that no
// receive matches (it roots each broadcast per process row and column
// but sends it over the whole communicator); the MPI runtime retires
// them and counts them in mpi.unmatched. Every other experiment
// receives every message it sends.
func TestOnlyHPLGridRetiresUnmatchedMessages(t *testing.T) {
	want := map[string]int64{"hpl-grid": 10240}
	for _, e := range Experiments() {
		c := obs.New()
		obs.SetActive(c)
		e.Run(Options{Quick: true})
		obs.SetActive(nil)
		if got := c.Counter("mpi.unmatched").Value(); got != want[e.ID] {
			t.Errorf("%s: mpi.unmatched = %d, want %d", e.ID, got, want[e.ID])
		}
	}
}
