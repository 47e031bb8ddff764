package bench

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTableFprintAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "long-header", "333", "a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,long-header\n1,2\n") {
		t.Fatalf("csv = %q", csv)
	}
}

// paperFigures are the nine artifacts of the paper's § 6. The package
// regenerates these and nothing else: measuring this system is benchmark/'s
// job, so a tenth name here is a second measurement path coming back.
var paperFigures = []string{"fig1", "fig5a", "fig5b", "fig6a", "fig6b", "fig7", "fig8", "fig9", "table1"}

func TestExperimentsListed(t *testing.T) {
	if names := Experiments(); !slices.Equal(names, paperFigures) {
		t.Fatalf("experiments = %v; want exactly the paper's %v", names, paperFigures)
	}
}

// TestReadmeNamesOnlyWhatExists reads the root README and fails on an
// `aeon-bench -exp …` name that Run would reject, and on any mention of the
// retired per-PR BENCH_<n>.json files.
func TestReadmeNamesOnlyWhatExists(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.Index(readme, []byte("BENCH_")); i >= 0 {
		t.Errorf("README.md line %d mentions BENCH_: cite a benchmark/ row and the command that reproduces it",
			1+bytes.Count(readme[:i], []byte("\n")))
	}
	uses := regexp.MustCompile(`aeon-bench\b[^\n]*?-exp[ =]+([A-Za-z0-9_,]+)`).FindAllSubmatch(readme, -1)
	if len(uses) == 0 {
		t.Fatal("README.md shows no `aeon-bench -exp …` command; the Quickstart should")
	}
	have := Experiments()
	for _, m := range uses {
		for _, name := range strings.Split(string(m[1]), ",") {
			if name != "all" && !slices.Contains(have, name) {
				t.Errorf("README.md runs `aeon-bench -exp %s`: no such experiment (have %v)", name, have)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig42", Options{}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestFig1Static(t *testing.T) {
	tables, err := Run("fig1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 5 {
		t.Fatalf("fig1 = %+v", tables)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.duration() != 3*time.Second {
		t.Fatalf("duration = %v", o.duration())
	}
	o.Quick = true
	if o.duration() != 800*time.Millisecond {
		t.Fatalf("quick duration = %v", o.duration())
	}
	o.Duration = time.Second
	if o.duration() != time.Second {
		t.Fatalf("explicit duration = %v", o.duration())
	}
	if o.seed() != 1 {
		t.Fatalf("seed = %d", o.seed())
	}
	o.Seed = 7
	if o.seed() != 7 {
		t.Fatalf("seed = %d", o.seed())
	}
}

func TestFormatters(t *testing.T) {
	if fmtK(1500) != "1.5k" || fmtK(999) != "999" {
		t.Fatalf("fmtK: %s %s", fmtK(1500), fmtK(999))
	}
	if fmtMS(1500*time.Microsecond) != "1.50ms" {
		t.Fatalf("fmtMS: %s", fmtMS(1500*time.Microsecond))
	}
}

// TestFig9Smoke runs the cheapest real experiment end to end with a tiny
// duration, covering the build+measure+report pipeline in unit tests.
func TestFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs migrations for ~1.2s")
	}
	tab, err := Fig9(Options{Quick: true, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0]) != 3 {
		t.Fatalf("fig9 rows = %v", tab.Rows)
	}
}
