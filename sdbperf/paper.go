package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"sdb/internal/battery"
	"sdb/internal/sim"
)

// paperRound is one regeneration of every experiment.
type paperRound struct {
	tables map[string]*sim.Table
	text   map[string]string // rendered table per experiment
	steps  map[string]int64
	allocs map[string]uint64
	failed int
}

// runPaper regenerates every sim.All() experiment serially on one
// Runner worker, round after round, until the window is used.
func runPaper(rc *runCtx) *report {
	rep := &report{}

	// Set-up: the program's own first-use build of the cell library and
	// its dense curve tables, and of the experiment registry. Both are
	// memoized per process, so each sample is a fresh child process
	// that times its first calls and then reads its live heap.
	var setups, setupWall, heaps []float64
	for i := 0; i < paperSetups; i++ {
		out, err := paperSetupSample()
		if err != nil {
			rep.fail(fmt.Errorf("paper: set-up: %w", err))
			return rep
		}
		setups = append(setups, out.CPU)
		setupWall = append(setupWall, out.Wall)
		heaps = append(heaps, out.Heap)
	}

	mem := startMem()
	win := window{seconds: rc.seconds}
	var first *paperRound
	var regen, rates []float64
	var steps float64
	for win.more() {
		rc.tr.setRun(win.rounds)
		round := rc.tr.begin("paper.round", -1)
		t0, c0 := time.Now(), cpuTime()
		pr := regenerate(rc.tr, round)
		d := time.Since(t0)
		rc.tr.end(round)
		win.done(d, cpuTime()-c0)
		regen = append(regen, d.Seconds())
		rep.attempted += int64(len(pr.tables) + pr.failed)
		rep.failed += int64(pr.failed)
		var n int64
		for _, k := range pr.steps {
			n += k
		}
		steps += float64(n)
		rates = append(rates, float64(n)/d.Seconds())
		if first == nil {
			first = pr
			rep.fail(checkPaperTables(pr.tables))
		} else {
			rep.fail(checkSameRound(first, pr))
		}
	}

	rep.add("setup_s", median(setups), "s")
	rep.add("setup_wall_s", median(setupWall), "s")
	rep.add("regen_s", median(regen), "s")
	rep.add("steps_per_s", median(rates), "steps/s")
	rep.addCPU(win, steps)
	rep.add("heap_mb", median(heaps), "MB")

	if rc.tr != nil {
		mem.addRuntime(rep, win.rounds)
		for _, id := range sim.IDs() {
			wall := rc.tr.durations("sim." + id)
			var ws []float64
			for _, w := range wall {
				ws = append(ws, w.Seconds())
			}
			s := median(ws)
			if s < 1e-3 {
				continue
			}
			n := first.steps[id]
			rep.addLayer("sim."+id+".s", s, "s")
			rep.addLayer("sim."+id+".steps", float64(n), "count")
			if n > 0 {
				rep.addLayer("sim."+id+".allocs_per_step", float64(first.allocs[id])/float64(n), "count")
			}
		}
		rep.fail(runLadder(rc, rep, ladderFromPaper()))
	}
	return rep
}

// paperSetups is how many child processes sample paper's set-up.
const paperSetups = 31

// setupOut is what a set-up child prints: the process CPU and wall
// seconds its first calls took, and the live heap after them.
type setupOut struct {
	CPU  float64 `json:"cpu_s"`
	Wall float64 `json:"wall_s"`
	Heap float64 `json:"heap_mb"`
}

// runSetupChild is the set-up child's main: it times the program's
// first battery.Library() (which builds the shared dense curve tables
// and every library cell) and sim.All(), reads the live heap with both
// still held, and prints a setupOut.
func runSetupChild() int {
	t0, c0 := time.Now(), cpuTime()
	lib := battery.Library()
	exps := sim.All()
	out := setupOut{CPU: (cpuTime() - c0).Seconds(), Wall: time.Since(t0).Seconds()}
	out.Heap = heapMB()
	if len(lib) == 0 || len(exps) == 0 {
		fmt.Fprintln(os.Stderr, "sdbperf: empty library or experiment registry")
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "sdbperf:", err)
		return 1
	}
	return 0
}

// paperSetupSample runs one set-up child and returns its report.
func paperSetupSample() (setupOut, error) {
	cmd := exec.Command(os.Args[0], "-setup-child")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return setupOut{}, err
	}
	var out setupOut
	if err := json.Unmarshal(b, &out); err != nil {
		return setupOut{}, fmt.Errorf("set-up child report: %w", err)
	}
	return out, nil
}

// regenerate runs every experiment once on one worker, each wrapped in
// a span named sim.<id> under parent.
func regenerate(tr *tracer, parent int32) *paperRound {
	exps := sim.All()
	var allocs map[string]uint64
	if tr != nil {
		allocs = map[string]uint64{}
		for i := range exps {
			e := exps[i]
			run := e.Run
			exps[i].Run = func(ctx context.Context) (*sim.Table, error) {
				sp := tr.begin("sim."+e.ID, parent)
				m0 := mallocs()
				tab, err := run(ctx)
				allocs[e.ID] = mallocs() - m0
				tr.end(sp)
				return tab, err
			}
		}
	}
	res := (&sim.Runner{Workers: 1}).Run(context.Background(), exps)
	pr := &paperRound{
		tables: map[string]*sim.Table{},
		text:   map[string]string{},
		steps:  map[string]int64{},
		allocs: allocs,
	}
	for _, j := range res.Jobs {
		if j.Err != nil || j.Table == nil {
			pr.failed++
			continue
		}
		var sb strings.Builder
		j.Table.Fprint(&sb)
		pr.tables[j.Experiment.ID] = j.Table
		pr.text[j.Experiment.ID] = sb.String()
		pr.steps[j.Experiment.ID] = j.Steps
	}
	return pr
}

// checkSameRound requires a later round to reproduce the first one's
// tables and step counts exactly.
func checkSameRound(a, b *paperRound) error {
	if len(a.text) != len(b.text) {
		return fmt.Errorf("paper: round produced %d tables, first round %d", len(b.text), len(a.text))
	}
	for id, txt := range a.text {
		if b.text[id] != txt {
			return fmt.Errorf("paper: %s table differs between rounds", id)
		}
		if b.steps[id] != a.steps[id] {
			return fmt.Errorf("paper: %s ran %d steps, first round %d", id, b.steps[id], a.steps[id])
		}
	}
	return nil
}

// checkPaperTables checks the properties the paper's method must show.
func checkPaperTables(tabs map[string]*sim.Table) error {
	for _, c := range []struct {
		id    string
		check func(*sim.Table) error
	}{
		{"figure-1b", checkFig1b},
		{"figure-1c", checkFig1c},
		{"figure-10", checkFig10},
		{"figure-11c", checkFig11c},
		{"figure-14", checkFig14},
		{"ext-year", checkExtYear},
	} {
		t := tabs[c.id]
		if t == nil {
			return fmt.Errorf("paper: no %s table", c.id)
		}
		if err := c.check(t); err != nil {
			return fmt.Errorf("paper: %s: %w", c.id, err)
		}
	}
	return nil
}

// num parses row r, column c of t.
func num(t *sim.Table, r, c int) (float64, error) {
	if r >= len(t.Rows) || c >= len(t.Rows[r]) {
		return 0, fmt.Errorf("no cell (%d,%d)", r, c)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t.Rows[r][c]), 64)
	if err != nil {
		return 0, fmt.Errorf("cell (%d,%d): %w", r, c, err)
	}
	return v, nil
}

// rowByLabel finds the row whose first cell starts with label.
func rowByLabel(t *sim.Table, label string) (int, error) {
	for i, row := range t.Rows {
		if len(row) > 0 && strings.HasPrefix(row[0], label) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no row %q", label)
}

// checkFig1b: retention never rises with cycles, and at every cycle
// count 0.5A ≥ 0.7A ≥ 1.0A.
func checkFig1b(t *sim.Table) error {
	if len(t.Rows) < 2 || len(t.Columns) != 4 {
		return fmt.Errorf("want 4 columns and several rows, have %d x %d", len(t.Rows), len(t.Columns))
	}
	for r := range t.Rows {
		var v [3]float64
		for c := 1; c <= 3; c++ {
			x, err := num(t, r, c)
			if err != nil {
				return err
			}
			v[c-1] = x
			if r > 0 {
				prev, _ := num(t, r-1, c)
				if x > prev {
					return fmt.Errorf("%s retention rises from %g to %g at row %d", t.Columns[c], prev, x, r)
				}
			}
		}
		if v[0] < v[1] || v[1] < v[2] {
			return fmt.Errorf("row %d: retention %v not ordered 0.5A >= 0.7A >= 1.0A", r, v)
		}
	}
	return nil
}

// checkFig1c: lost energy rises with C rate for every cell type.
func checkFig1c(t *sim.Table) error {
	if len(t.Rows) < 2 || len(t.Columns) < 2 {
		return fmt.Errorf("table too small")
	}
	for c := 1; c < len(t.Columns); c++ {
		for r := 1; r < len(t.Rows); r++ {
			a, err := num(t, r-1, c)
			if err != nil {
				return err
			}
			b, err := num(t, r, c)
			if err != nil {
				return err
			}
			if b <= a {
				return fmt.Errorf("%s loss does not rise at row %d (%g -> %g)", t.Columns[c], r, a, b)
			}
		}
	}
	return nil
}

// checkFig10: the fitted model is at least 97.5% accurate everywhere.
func checkFig10(t *sim.Table) error {
	if len(t.Rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for r := range t.Rows {
		acc, err := num(t, r, len(t.Columns)-1)
		if err != nil {
			return err
		}
		if acc < 97.5 {
			return fmt.Errorf("row %d: accuracy %g%% < 97.5%%", r, acc)
		}
	}
	return nil
}

// checkFig11c: retention ranks traditional > SDB > all fast.
func checkFig11c(t *sim.Table) error {
	var v []float64
	for _, label := range []string{"traditional", "SDB", "all fast"} {
		r, err := rowByLabel(t, label)
		if err != nil {
			return err
		}
		x, err := num(t, r, 1)
		if err != nil {
			return err
		}
		v = append(v, x)
	}
	if !(v[0] > v[1] && v[1] > v[2]) {
		return fmt.Errorf("retention %v not ordered traditional > SDB > all fast", v)
	}
	return nil
}

// checkFig14: simultaneous draw beats the baseline on every workload.
func checkFig14(t *sim.Table) error {
	if len(t.Rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for r := range t.Rows {
		sdb, err := num(t, r, 1)
		if err != nil {
			return err
		}
		base, err := num(t, r, 2)
		if err != nil {
			return err
		}
		if sdb <= base {
			return fmt.Errorf("%s: SDB %g h <= baseline %g h", t.Rows[r][0], sdb, base)
		}
	}
	return nil
}

// checkExtYear: capacity after a year ranks gentle ≥ schedule-aware ≥
// fast.
func checkExtYear(t *sim.Table) error {
	var v []float64
	for _, label := range []string{"always gentle", "schedule-aware", "always fast"} {
		r, err := rowByLabel(t, label)
		if err != nil {
			return err
		}
		x, err := num(t, r, 1)
		if err != nil {
			return err
		}
		v = append(v, x)
	}
	if !(v[0] >= v[1] && v[1] >= v[2]) {
		return fmt.Errorf("capacity %v not ordered gentle >= schedule-aware >= fast", v)
	}
	return nil
}
