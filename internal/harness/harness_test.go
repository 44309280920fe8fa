package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeOptions keeps harness tests fast while exercising the full path.
func smokeOptions() Options {
	return Options{Cores: []int{1, 4}, Iters: 20}
}

func TestTablePrint(t *testing.T) {
	tbl := &Table{Title: "demo"}
	tbl.Rows = []Row{
		{Series: "a", Cores: 1, Value: 1.5, Unit: "x"},
		{Series: "a", Cores: 4, Value: 6.0, Unit: "x"},
		{Series: "b", Cores: 1, Value: 2.0, Unit: "x"},
	}
	var b strings.Builder
	tbl.Print(&b)
	out := b.String()
	for _, want := range []string{"demo", "a", "b", "1.50", "6.00", "(x)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	tables := Fig5(smokeOptions())
	if len(tables) != 3 {
		t.Fatalf("Fig5 produced %d tables", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.Title)
		}
		for _, r := range tbl.Rows {
			if r.Value <= 0 {
				t.Errorf("%s %s@%d: non-positive value", tbl.Title, r.Series, r.Cores)
			}
		}
	}
	// The headline relation at 4 cores: radixvm beats linux on local.
	local := tables[0]
	vals := map[string]float64{}
	for _, r := range local.Rows {
		if r.Cores == 4 {
			vals[r.Series] = r.Value
		}
	}
	if vals["radixvm"] <= vals["linux"] {
		t.Errorf("local@4: radixvm %.2f <= linux %.2f", vals["radixvm"], vals["linux"])
	}
}

func TestFig8Smoke(t *testing.T) {
	tbl := Fig8(smokeOptions())
	vals := map[string]float64{}
	for _, r := range tbl.Rows {
		if r.Cores == 4 {
			vals[r.Series] = r.Value
		}
	}
	if vals["refcache"] <= vals["shared"] {
		t.Errorf("fig8@4: refcache %.2f <= shared %.2f", vals["refcache"], vals["shared"])
	}
}

func TestFig9Smoke(t *testing.T) {
	tables := Fig9(smokeOptions())
	if len(tables) != 3 {
		t.Fatalf("Fig9 produced %d tables", len(tables))
	}
	// Local at 4 cores: per-core page tables must beat shared (broadcast
	// shootdowns).
	vals := map[string]float64{}
	for _, r := range tables[0].Rows {
		if r.Cores == 4 {
			vals[r.Series] = r.Value
		}
	}
	if vals["percore"] <= vals["shared"] {
		t.Errorf("fig9 local@4: percore %.2f <= shared %.2f", vals["percore"], vals["shared"])
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in four full application layouts")
	}
	out := Table2()
	for _, app := range []string{"Firefox", "Chrome", "Apache", "MySQL"} {
		if !strings.Contains(out, app) {
			t.Errorf("Table2 missing %s:\n%s", app, out)
		}
	}
}

func TestTable1CountsSources(t *testing.T) {
	out := Table1("../..")
	if !strings.Contains(out, "Radix tree") || strings.Contains(out, "source not found") {
		t.Errorf("Table1 failed to count sources:\n%s", out)
	}
}

// TestTable1FromAnyDirectory: table1 finds the module root from the
// package directory (the test's working directory) and from a directory
// outside the source tree.
func TestTable1FromAnyDirectory(t *testing.T) {
	check := func(where string) {
		out := Table1(ModuleRoot())
		if !strings.Contains(out, "Radix tree") || strings.Contains(out, "source not found") {
			t.Errorf("Table1 from %s failed to count sources:\n%s", where, out)
		}
	}
	check("the package directory")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	check("a directory outside the module")
}

// TestTable1CoversEveryPackage: every package directory under internal/
// (one holding a non-test .go file) belongs to exactly one Table 1
// component, so a refactor cannot move lines out of the count.
func TestTable1CoversEveryPackage(t *testing.T) {
	owner := map[string]string{}
	for _, comp := range table1Components {
		for _, d := range comp.dirs {
			if prev, ok := owner[d]; ok {
				t.Errorf("%s is in both %q and %q", d, prev, comp.name)
			}
			owner[d] = comp.name
		}
	}
	root := ModuleRoot()
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		d := "internal/" + e.Name()
		if !e.IsDir() || countGoLines(filepath.Join(root, d)) == 0 {
			continue
		}
		if _, ok := owner[d]; !ok {
			t.Errorf("package %s belongs to no Table 1 component", d)
		}
	}
}

func TestStructureBenchSeries(t *testing.T) {
	o := Options{Cores: []int{2}, Iters: 5}
	tbl := Fig7(o)
	series := map[string]bool{}
	for _, r := range tbl.Rows {
		series[r.Series] = true
	}
	for _, want := range []string{"0 writers", "10 writers", "40 writers"} {
		if !series[want] {
			t.Errorf("Fig7 missing series %q", want)
		}
	}
}
