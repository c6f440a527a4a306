package experiments

// A trajectory is one recorded run of a bench, kept as a BENCH_*.json
// file so a later change can diff its numbers against this one. Every
// bench keeps the same envelope: a schema tag naming the row type, the
// run's configuration, the rows, and optional run-wide totals. Each bench
// declares its table once, as a Layout; one renderer prints it, and one
// Compare pairs the rows of two runs and prints the old value, the new
// value and the delta of every tracked column.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// Trajectory is one run of a bench.
type Trajectory[R any] struct {
	Schema string `json:"schema"`
	// Config holds the settings that shape the numbers (scale, chunk,
	// workers, format, reps, go); Compare flags runs whose configs differ.
	Config map[string]string `json:"config"`
	Rows   []R               `json:"rows"`
	// Totals holds run-wide figures that belong to no single row.
	Totals map[string]float64 `json:"totals,omitempty"`
}

// Column is one column of a bench's table.
type Column[R any] struct {
	Header string
	Cell   func(R) string
	// Track, when set, is the value Compare diffs across runs.
	Track func(R) float64
}

// text is a column of strings.
func text[R any](header string, cell func(R) string) Column[R] {
	return Column[R]{Header: header, Cell: cell}
}

// num is a numeric column printed with format.
func num[R any](header, format string, v func(R) float64) Column[R] {
	return Column[R]{Header: header, Cell: func(r R) string { return fmt.Sprintf(format, v(r)) }}
}

// tracked is a numeric column that Compare diffs.
func tracked[R any](header, format string, v func(R) float64) Column[R] {
	c := num(header, format, v)
	c.Track = v
	return c
}

// Layout declares one bench's trajectory: its schema, its table and how
// its rows pair across runs. Schema and Key are unset for a bench whose
// table is printed but never kept.
type Layout[R any] struct {
	Schema  string
	ID      string
	Title   func(t *Trajectory[R]) string
	Notes   func(t *Trajectory[R]) []string
	Columns []Column[R]
	// Key names a row; Compare pairs the rows of two runs by it.
	Key func(R) string
}

// Start returns an empty run with the given config plus the Go version.
func (l *Layout[R]) Start(config map[string]string) *Trajectory[R] {
	config["go"] = runtime.Version()
	return &Trajectory[R]{Schema: l.Schema, Config: config}
}

// Table renders t, one table row per trajectory row.
func (l *Layout[R]) Table(t *Trajectory[R]) *Table {
	tbl := &Table{ID: l.ID, Title: l.Title(t)}
	if l.Notes != nil {
		tbl.Notes = l.Notes(t)
	}
	for _, c := range l.Columns {
		tbl.Header = append(tbl.Header, c.Header)
	}
	for _, r := range t.Rows {
		cells := make([]string, len(l.Columns))
		for i, c := range l.Columns {
			cells[i] = c.Cell(r)
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	return tbl
}

// Compare renders cur against the previous run old. Rows pair by Key, in
// cur's order, and a row on only one side is left out. Each tracked
// column gets its old cell, its new cell and the signed percent change.
// Config entries that differ and run-wide totals are noted. A nil old
// yields an empty table noting that this run is the baseline.
func (l *Layout[R]) Compare(old, cur *Trajectory[R]) *Table {
	tbl := &Table{ID: l.ID + "Δ", Title: l.Title(cur) + " vs previous trajectory", Header: []string{"row"}}
	var cols []Column[R]
	for _, c := range l.Columns {
		if c.Track != nil {
			cols = append(cols, c)
			tbl.Header = append(tbl.Header, c.Header+" old", c.Header+" new", "delta")
		}
	}
	if old == nil {
		tbl.Notes = append(tbl.Notes, "no previous trajectory file; baseline recorded")
		return tbl
	}
	var differ []string
	for _, k := range unionKeys(old.Config, cur.Config) {
		if old.Config[k] != cur.Config[k] {
			differ = append(differ, fmt.Sprintf("%s %q -> %q", k, old.Config[k], cur.Config[k]))
		}
	}
	if len(differ) > 0 {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("configs differ (%v); deltas are indicative only", differ))
	}
	prev := make(map[string]R, len(old.Rows))
	for _, r := range old.Rows {
		prev[l.Key(r)] = r
	}
	for _, r := range cur.Rows {
		o, ok := prev[l.Key(r)]
		if !ok {
			continue
		}
		cells := []string{l.Key(r)}
		for _, c := range cols {
			cells = append(cells, c.Cell(o), c.Cell(r), delta(c.Track(o), c.Track(r)))
		}
		tbl.Rows = append(tbl.Rows, cells)
	}
	for _, k := range unionKeys(old.Totals, cur.Totals) {
		o, n := old.Totals[k], cur.Totals[k]
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("%s: %s -> %s (%s)", k,
			strconv.FormatFloat(o, 'f', -1, 64), strconv.FormatFloat(n, 'f', -1, 64), delta(o, n)))
	}
	return tbl
}

// delta is the signed percent change from old to cur.
func delta(old, cur float64) string {
	if old <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-old)/old)
}

// unionKeys returns the keys of a and b, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// Load reads the run kept at path. A missing file is a fresh start (nil,
// nil). A file that is not valid JSON or carries another schema is an
// error naming the fix, since overwriting it would erase the run it
// keeps.
func (l *Layout[R]) Load(path string) (*Trajectory[R], error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	t := new(Trajectory[R])
	if err := json.Unmarshal(raw, t); err != nil {
		return nil, fmt.Errorf("previous trajectory %s is not valid JSON (delete it to start fresh): %w", path, err)
	}
	if t.Schema != l.Schema {
		return nil, fmt.Errorf("previous trajectory %s has schema %q, want %q (delete it to start fresh)", path, t.Schema, l.Schema)
	}
	return t, nil
}

// Save writes t to path as indented JSON, the form Load reads.
func (l *Layout[R]) Save(path string, t *Trajectory[R]) error {
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Record runs a bench and keeps the run at path. It loads the previous
// run first, so a damaged file fails before a long run; then it runs,
// prints the run's table and its comparison with the previous run to w,
// and overwrites path.
func (l *Layout[R]) Record(w io.Writer, path string, run func() (*Trajectory[R], error)) error {
	old, err := l.Load(path)
	if err != nil {
		return err
	}
	cur, err := run()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, l.Table(cur).String())
	fmt.Fprintln(w, l.Compare(old, cur).String())
	return l.Save(path, cur)
}

// bestOf runs each of fs once per repetition, in order, reps times over,
// and returns each one's fastest wall time. Interleaving the measured
// functions lets a load spike on a shared machine hit all of them alike.
func bestOf(reps int, fs ...func() error) ([]time.Duration, error) {
	best := make([]time.Duration, len(fs))
	for i := 0; i < max(reps, 1); i++ {
		for j, f := range fs {
			start := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			if d := time.Since(start); i == 0 || d < best[j] {
				best[j] = d
			}
		}
	}
	return best, nil
}

// allocBytes returns the heap bytes allocated while f runs. A GC runs
// before the baseline is read, so a cycle that earlier garbage made due
// does not start inside the measured span.
func allocBytes(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, nil
}
