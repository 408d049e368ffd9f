package main

// Each output check must accept the program's real output and reject
// the same output with one small perturbation: a swapped table cell,
// a result nudged by one ulp, a dropped push frame, a query window
// shifted by one step.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"sdb/internal/bus"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
	"sdb/internal/sim"
)

func realTable(t *testing.T, id string) *sim.Table {
	t.Helper()
	e, ok := sim.ByID(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	tab, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// clone deep-copies a table so a perturbation leaves the original.
func clone(t *sim.Table) *sim.Table {
	c := *t
	c.Rows = nil
	for _, r := range t.Rows {
		c.Rows = append(c.Rows, append([]string(nil), r...))
	}
	return &c
}

func TestPaperChecksRejectSwappedCells(t *testing.T) {
	tabs := map[string]*sim.Table{}
	for _, id := range []string{"figure-1b", "figure-1c", "figure-10", "figure-11c", "figure-14", "ext-year"} {
		tabs[id] = realTable(t, id)
	}
	if err := checkPaperTables(tabs); err != nil {
		t.Fatalf("real tables rejected: %v", err)
	}
	last := func(tab *sim.Table) int { return len(tab.Rows) - 1 }
	for _, c := range []struct {
		id     string
		r1, c1 int // r1 < 0 means the last row
		other  func(*sim.Table) (int, int)
	}{
		// 0.5A and 1.0A retention swapped at the last cycle count.
		{"figure-1b", -1, 1, func(tb *sim.Table) (int, int) { return last(tb), 3 }},
		// One type's loss at the lowest and highest C rate swapped.
		{"figure-1c", 0, 1, func(tb *sim.Table) (int, int) { return last(tb), 1 }},
		// Accuracy swapped with the point count.
		{"figure-10", 0, 1, func(tb *sim.Table) (int, int) { return 0, 2 }},
		// Traditional and all-fast retention swapped.
		{"figure-11c", 0, 1, func(tb *sim.Table) (int, int) { return 2, 1 }},
		// SDB and baseline hours swapped for one workload.
		{"figure-14", 0, 1, func(tb *sim.Table) (int, int) { return 0, 2 }},
		// Gentle and fast capacity swapped.
		{"ext-year", 0, 1, func(tb *sim.Table) (int, int) { return 1, 1 }},
	} {
		bad := map[string]*sim.Table{}
		for id, tab := range tabs {
			bad[id] = tab
		}
		p := clone(tabs[c.id])
		r1 := c.r1
		if r1 < 0 {
			r1 = last(p)
		}
		r2, c2 := c.other(p)
		p.Rows[r1][c.c1], p.Rows[r2][c2] = p.Rows[r2][c2], p.Rows[r1][c.c1]
		bad[c.id] = p
		if err := checkPaperTables(bad); err == nil {
			t.Errorf("%s: swapped cells (%d,%d)<->(%d,%d) accepted", c.id, r1, c.c1, r2, c2)
		}
	}
}

func TestSameRoundRejectsChangedOutput(t *testing.T) {
	a := &paperRound{text: map[string]string{"x": "t"}, steps: map[string]int64{"x": 10}}
	same := &paperRound{text: map[string]string{"x": "t"}, steps: map[string]int64{"x": 10}}
	if err := checkSameRound(a, same); err != nil {
		t.Fatal(err)
	}
	if checkSameRound(a, &paperRound{text: map[string]string{"x": "u"}, steps: map[string]int64{"x": 10}}) == nil {
		t.Error("changed table accepted")
	}
	if checkSameRound(a, &paperRound{text: map[string]string{"x": "t"}, steps: map[string]int64{"x": 11}}) == nil {
		t.Error("changed step count accepted")
	}
}

func TestReplayCheckRejectsOneUlp(t *testing.T) {
	m := newMix(5, 4, 0)
	id := m.specs[0].id
	cfg, err := m.config(m.specs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := emulator.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.replay(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplays(map[uint16]uint64{id: digest(res)}, map[uint16]uint64{id: ref}); err != nil {
		t.Fatalf("identical run rejected: %v", err)
	}
	res.DeliveredJ = math.Nextafter(res.DeliveredJ, math.Inf(1))
	if checkReplays(map[uint16]uint64{id: digest(res)}, map[uint16]uint64{id: ref}) == nil {
		t.Error("result nudged by one ulp accepted")
	}
	res.DeliveredJ = math.Nextafter(res.DeliveredJ, math.Inf(-1))
	res.Series.SoC[0][3] = math.Nextafter(res.Series.SoC[0][3], 0)
	if checkReplays(map[uint16]uint64{id: digest(res)}, map[uint16]uint64{id: ref}) == nil {
		t.Error("one SoC sample nudged by one ulp accepted")
	}
}

func TestAnswerCheckRejectsMismatch(t *testing.T) {
	m := newMix(3, 2, 0)
	s := m.specs[0]
	cfg, err := m.config(s)
	if err != nil {
		t.Fatal(err)
	}
	req := bus.Frame{Cmd: pmic.CmdQueryStatus, Seq: 7, Device: s.id}
	resp := cfg.Controller.Dispatch(req)
	resp.Device = req.Device
	if err := checkAnswer(req, resp, s.cells); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	for name, mut := range map[string]func(*bus.Frame, *[]string){
		"seq":     func(f *bus.Frame, _ *[]string) { f.Seq++ },
		"device":  func(f *bus.Frame, _ *[]string) { f.Device++ },
		"cmd":     func(f *bus.Frame, _ *[]string) { f.Cmd = pmic.CmdPing | pmic.RespFlag },
		"cell":    func(_ *bus.Frame, c *[]string) { *c = append([]string{"Watch-200"}, (*c)[1:]...) },
		"cells":   func(_ *bus.Frame, c *[]string) { *c = append(*c, "Watch-200") },
		"status":  func(f *bus.Frame, _ *[]string) { f.Payload = append([]byte{pmic.StatusBadArgs}, f.Payload[1:]...) },
		"trimmed": func(f *bus.Frame, _ *[]string) { f.Payload = f.Payload[:len(f.Payload)-1] },
	} {
		f := resp
		f.Payload = append([]byte(nil), resp.Payload...)
		cells := append([]string(nil), s.cells...)
		mut(&f, &cells)
		if checkAnswer(req, f, cells) == nil {
			t.Errorf("answer with wrong %s accepted", name)
		}
	}
}

func TestLedgerRejectsDroppedFrame(t *testing.T) {
	stats := []pmic.SubStat{{ID: 1, Pushed: 180, Dropped: 3}, {ID: 2, Pushed: 180}}
	if err := checkLedger(map[uint64]uint64{1: 177, 2: 180}, stats); err != nil {
		t.Fatal(err)
	}
	if checkLedger(map[uint64]uint64{1: 177, 2: 179}, stats) == nil {
		t.Error("one frame missing accepted")
	}
	if checkLedger(map[uint64]uint64{1: 178, 2: 180}, stats) == nil {
		t.Error("one frame beyond the ledger accepted")
	}
	if checkLedger(map[uint64]uint64{1: 177}, stats) == nil {
		t.Error("missing subscriber accepted")
	}
}

// gridStore records a device's soc and steps series on the telemetry
// grid, the way the fleet does, for ticks 1..telTicks.
func gridStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Create(filepath.Join(t.TempDir(), "s.sdbstor"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for k := 1; k <= telTicks; k++ {
		tm := float64(k * telGrid)
		soc := 0.9 - 0.8*float64(k)/telTicks
		if err := st.Append("sdb_fleet_dev1_soc", ts.KindGauge, telGrid, tm, soc); err != nil {
			t.Fatal(err)
		}
		if err := st.Append("sdb_fleet_dev1_steps", ts.KindFCounter, telGrid, tm, tm/stepDT); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestWindowCheckRejectsShiftedWindow(t *testing.T) {
	st := gridStore(t)
	for _, series := range []string{"soc", "steps"} {
		q := query{series: "sdb_fleet_dev1_" + series, steps: series == "steps",
			t0: 10*telGrid - telGrid/2, t1: 40*telGrid + telGrid/2, bucketS: 4 * telGrid}
		w, err := st.Query(q.series, q.t0, q.t1)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkWindow(q, w); err != nil {
			t.Fatalf("real window rejected: %v", err)
		}
		shifted, err := st.Query(q.series, q.t0+telGrid, q.t1+telGrid)
		if err != nil {
			t.Fatal(err)
		}
		if checkWindow(q, shifted) == nil {
			t.Errorf("%s window shifted by one step accepted", series)
		}
		raw := func(a, b float64) (ts.Window, error) { return st.Query(q.series, a, b) }
		bs, err := st.QueryDown(q.series, q.t0, q.t1, q.bucketS)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkBuckets(q, bs, raw); err != nil {
			t.Fatalf("real buckets rejected: %v", err)
		}
		bad := append([]store.Bucket(nil), bs...)
		bad[1].Sum = math.Nextafter(bad[1].Sum, math.Inf(1))
		if checkBuckets(q, bad, raw) == nil {
			t.Errorf("%s bucket mean off by one ulp accepted", series)
		}
		bad = append([]store.Bucket(nil), bs...)
		bad[2].Max = bad[2].Min
		if checkBuckets(q, bad, raw) == nil {
			t.Errorf("%s bucket max below its mean accepted", series)
		}
		shiftedB, err := st.QueryDown(q.series, q.t0+telGrid, q.t1+telGrid, q.bucketS)
		if err != nil {
			t.Fatal(err)
		}
		shiftRaw := func(a, b float64) (ts.Window, error) { return st.Query(q.series, a+telGrid, b+telGrid) }
		if checkBuckets(q, shiftedB, shiftRaw) == nil {
			t.Errorf("%s buckets checked against raw points one step off accepted", series)
		}
	}
	w, err := st.Query("sdb_fleet_dev1_steps", 0, 100*telGrid)
	if err != nil {
		t.Fatal(err)
	}
	w.Values[5]++
	if checkWindow(query{steps: true, t0: 0, t1: 100 * telGrid}, w) == nil {
		t.Error("steps series off the grid count accepted")
	}
}

func TestFiringCheckRejectsUnjustifiedFiring(t *testing.T) {
	st := gridStore(t)
	// soc falls below 0.35 at tick ceil((0.9-0.35)/0.8*telTicks).
	k := int(math.Ceil((0.9 - 0.35) / 0.8 * telTicks))
	for k < telTicks && 0.9-0.8*float64(k)/telTicks >= 0.35 {
		k++
	}
	k += 3 // held for the rule's 3 grid steps
	at := float64(k * telGrid)
	v := 0.9 - 0.8*float64(k)/telTicks
	good := fleet.AlertTransition{TimeS: at, Device: 1, Rule: "lowsoc", From: ts.StatePending, To: ts.StateFiring, Value: v, Threshold: 0.35}
	if err := checkFirings(st, []fleet.AlertTransition{good}); err != nil {
		t.Fatalf("justified firing rejected: %v", err)
	}
	early := good
	early.TimeS -= 3 * telGrid
	early.Value = 0.9 - 0.8*float64(k-3)/telTicks
	if checkFirings(st, []fleet.AlertTransition{early}) == nil {
		t.Error("firing before the hold window elapsed accepted")
	}
	wrong := good
	wrong.Value = math.Nextafter(v, 1)
	if checkFirings(st, []fleet.AlertTransition{wrong}) == nil {
		t.Error("firing value off the stored series accepted")
	}
	if checkFirings(st, nil) == nil {
		t.Error("a run where no alert fired accepted")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "a", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "b", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps the first child
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.name] = r
	}
	if a := got["a"]; a.self != 100-40-10 || a.total != 100 {
		t.Errorf("a: self %d total %d, want 50 and 100", a.self, a.total)
	}
	if b := got["b"]; b.count != 2 || b.self != 50 {
		t.Errorf("b: count %d self %d, want 2 and 50", b.count, b.self)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median %g, want 2.5", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max %g, want 4", q)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input")
	}
}

func TestDownsampledReadIsOverTheStepsSeries(t *testing.T) {
	for _, q := range []query{
		{series: "sdb_fleet_dev17_soc"},
		{series: "sdb_fleet_dev17_steps", steps: true},
	} {
		if d := q.down(); d.series != "sdb_fleet_dev17_steps" || !d.steps {
			t.Errorf("%s: downsampled read over %s (steps %v)", q.series, d.series, d.steps)
		}
	}
}

func TestPlateauProbeChecksStrictly(t *testing.T) {
	// The probe must fail exactly when the store's bucket breaks
	// min <= mean <= max, and otherwise pass.
	err := plateauProbe(filepath.Join(t.TempDir(), "p.sdbstor"), nil, -1)
	sum := 0.0
	for i := 0; i < plateauLen; i++ {
		sum += plateauSoC
	}
	if mean := sum / plateauLen; (mean > plateauSoC) != errors.Is(err, errPlateau) {
		t.Errorf("probe error %v for a plateau whose mean is %.17g", err, mean)
	}
}
