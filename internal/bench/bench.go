// Package bench regenerates every table and figure of the paper's
// evaluation (§ 6) — paper figures only. Each experiment builds the relevant
// systems on a fresh simulated cluster, drives them with the workload
// generators, and prints the same rows/series the paper reports. Absolute
// numbers differ (simulated substrate vs EC2) but the shapes are the
// acceptance criteria. Measuring this system (throughput, latency, per-layer
// cost, PR over PR) is benchmark/'s job, not this package's.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks sweeps and durations for CI-speed runs.
	Quick bool
	// Duration per measured point (defaults: 3s, quick 800ms).
	Duration time.Duration
	// Seed for workload reproducibility.
	Seed int64
	// Verbose prints progress lines to Out during the run.
	Verbose bool
	// Out receives progress output (defaults to io.Discard).
	Out io.Writer
}

func (o Options) duration() time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	if o.Quick {
		return 800 * time.Millisecond
	}
	return 3 * time.Second
}

func (o Options) progressf(format string, args ...any) {
	if o.Verbose && o.Out != nil {
		fmt.Fprintf(o.Out, format, args...)
	}
}

func (o Options) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// Table is a printable experiment result.
type Table struct {
	// Title names the table after the paper artifact it regenerates.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells.
	Rows [][]string
	// Notes are free-form footnotes (expected shapes, caveats).
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment names map to runner functions.
var experiments = map[string]func(Options) ([]*Table, error){
	"fig1":   func(o Options) ([]*Table, error) { return []*Table{Fig1()}, nil },
	"fig5a":  func(o Options) ([]*Table, error) { t, err := Fig5a(o); return wrap(t, err) },
	"fig5b":  func(o Options) ([]*Table, error) { t, err := Fig5b(o); return wrap(t, err) },
	"fig6a":  func(o Options) ([]*Table, error) { t, err := Fig6a(o); return wrap(t, err) },
	"fig6b":  func(o Options) ([]*Table, error) { t, err := Fig6b(o); return wrap(t, err) },
	"fig7":   Fig7,
	"table1": func(o Options) ([]*Table, error) { t, err := Table1(o); return wrap(t, err) },
	"fig8":   func(o Options) ([]*Table, error) { t, err := Fig8(o); return wrap(t, err) },
	"fig9":   func(o Options) ([]*Table, error) { t, err := Fig9(o); return wrap(t, err) },
}

func wrap(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Experiments lists the available experiment names.
func Experiments() []string {
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes the named experiment.
func Run(name string, o Options) ([]*Table, error) {
	fn, ok := experiments[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments())
	}
	return fn(o)
}

// Fig1 renders the qualitative comparison table (Figure 1 of the paper),
// reflecting the properties of the five implemented systems.
func Fig1() *Table {
	return &Table{
		Title:   "Figure 1: programming models for cloud-based stateful applications",
		Columns: []string{"Property", "EventWave", "Orleans", "AEON"},
		Rows: [][]string{
			{"Data encapsulation", "Contexts", "Grains", "Contexts"},
			{"Programmability restraint", "Context tree", "Unordered grains", "Context DAG"},
			{"Event consistency across actors", "Strict serializability", "No guarantees", "Strict serializability"},
			{"Event progress", "Minimal (root bottleneck)", "Deadlocks possible", "Starvation-freedom"},
			{"Automatic elasticity", "No", "Yes", "Yes"},
		},
		Notes: []string{
			"properties verified by tests: eventwave (root ordering, tree-only), orleans (deadlock detection, no atomicity), core (serializability, FIFO fairness), emanager (elastic policies)",
		},
	}
}

func fmtK(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.1fk", v/1000)
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
