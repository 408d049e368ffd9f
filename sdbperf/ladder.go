package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sdb/internal/battery"
	"sdb/internal/bus"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/fleet/snapshot"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

// ladderInput is what the per-layer ladder calls the layers with: a
// workload's own devices and the function that builds its traces.
type ladderInput struct {
	m      *mix
	ids    []uint16
	traces func() []*workload.Trace
}

// ladderFromPaper builds the ladder's inputs from the paper's 2-in-1
// scenario (figure 14's application mixes) on a two-cell pack of a
// dense and a fast-charging cell (figure 11's pairing).
func ladderFromPaper() ladderInput {
	build := func() []*workload.Trace {
		var out []*workload.Trace
		for _, w := range workload.TwoInOneWorkloads() {
			out = append(out, w.Trace(traceLen*stepDT, stepDT))
		}
		return out
	}
	m := &mix{traces: build()}
	for i := range m.traces {
		m.specs = append(m.specs, spec{
			id: uint16(i + 1), cells: []string{"Slim-5000", "QuickCharge-4000"},
			soc: 1, trace: i, policy: i%2 == 0,
		})
	}
	in := ladderInput{m: m, traces: build}
	for _, s := range m.specs {
		in.ids = append(in.ids, s.id)
	}
	return in
}

// perOp returns the mean time per operation in the given unit.
func perOp(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

// runLadder calls each layer entry point directly on the workload's
// inputs, after the timed window, and reports the per-layer costs.
func runLadder(rc *runCtx, rep *report, in ladderInput) error {
	m := in.m
	cfgs := func() ([]emulator.Config, error) {
		var out []emulator.Config
		for _, id := range in.ids {
			s, err := m.spec(id)
			if err != nil {
				return nil, err
			}
			cfg, err := m.config(s)
			if err != nil {
				return nil, err
			}
			out = append(out, cfg)
		}
		return out, nil
	}

	// workload: trace generation.
	var tb []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		in.traces()
		tb = append(tb, float64(time.Since(t0))/1e6)
	}
	rep.addLayer("workload.trace_build_ms", median(tb), "ms")

	// emulator: standalone machines, stepped in batches to the end.
	cs, err := cfgs()
	if err != nil {
		return err
	}
	var emuD time.Duration
	var emuSteps int
	a0 := mallocs()
	for _, cfg := range cs {
		mc, err := emulator.NewMachine(cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for !mc.Done() {
			if _, err := mc.StepBatch(64); err != nil {
				return err
			}
		}
		emuD += time.Since(t0)
		emuSteps += mc.StepsRun()
	}
	rep.addLayer("emulator.step_ns", perOp(emuD, emuSteps, time.Nanosecond), "ns")
	rep.addLayer("emulator.allocs_per_step", float64(mallocs()-a0)/float64(max(emuSteps, 1)), "count")

	// pmic: the firmware step on each device's trace.
	if cs, err = cfgs(); err != nil {
		return err
	}
	var pmD time.Duration
	var pmSteps int
	for _, cfg := range cs {
		tr := cfg.Trace
		t0 := time.Now()
		for k := 0; k < tr.Len(); k++ {
			load, ext := tr.Sample(k)
			if _, err := cfg.Controller.Step(load, ext, tr.DT); err != nil {
				return err
			}
		}
		pmD += time.Since(t0)
		pmSteps += tr.Len()
	}
	rep.addLayer("pmic.step_ns", perOp(pmD, pmSteps, time.Nanosecond), "ns")

	// battery: one cell of each device carrying its share of the load.
	var cellD time.Duration
	var cellSteps int
	for _, id := range in.ids {
		s, _ := m.spec(id)
		c, err := battery.New(battery.MustByName(s.cells[0]))
		if err != nil {
			return err
		}
		c.SetSoC(s.soc)
		tr := m.traces[s.trace]
		share := 1 / float64(len(s.cells))
		t0 := time.Now()
		for k := 0; k < tr.Len(); k++ {
			load, ext := tr.Sample(k)
			c.StepPower((load-ext)*share, tr.DT)
		}
		cellD += time.Since(t0)
		cellSteps += tr.Len()
	}
	rep.addLayer("battery.cell_step_ns", perOp(cellD, cellSteps, time.Nanosecond), "ns")

	// core: the policy update, on every device's controller.
	if cs, err = cfgs(); err != nil {
		return err
	}
	const updates = 200
	var coreD time.Duration
	var coreN int
	a0 = mallocs()
	for _, cfg := range cs {
		rt, err := core.NewRuntime(cfg.Controller, core.Options{})
		if err != nil {
			return err
		}
		tr := cfg.Trace
		t0 := time.Now()
		for k := 0; k < updates; k++ {
			load, ext := tr.Sample(k * tr.Len() / updates)
			if _, err := rt.Update(load, ext); err != nil {
				return err
			}
		}
		coreD += time.Since(t0)
		coreN += updates
	}
	coreAllocs := mallocs() - a0
	rep.addLayer("core.update_ns", perOp(coreD, coreN, time.Nanosecond), "ns")
	rep.addLayer("core.update_allocs", float64(coreAllocs)/float64(max(coreN, 1)), "count")

	// pmic dispatch and the bus codec, on status queries.
	const cmds = 2000
	var dispD, encD, decD time.Duration
	for i := 0; i < cmds; i++ {
		cfg := cs[i%len(cs)]
		req := bus.Frame{Cmd: pmic.CmdQueryStatus, Seq: byte(i), Device: in.ids[i%len(in.ids)]}
		t0 := time.Now()
		resp := cfg.Controller.Dispatch(req)
		t1 := time.Now()
		buf, err := bus.Encode(resp)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := bus.ReadFrame(bytes.NewReader(buf)); err != nil {
			return err
		}
		dispD += t1.Sub(t0)
		encD += t2.Sub(t1)
		decD += time.Since(t2)
	}
	rep.addLayer("pmic.dispatch_us", perOp(dispD, cmds, time.Microsecond), "us")
	rep.addLayer("bus.encode_ns", perOp(encD, cmds, time.Nanosecond), "ns")
	rep.addLayer("bus.decode_ns", perOp(decD, cmds, time.Nanosecond), "ns")

	if err := ladderStore(rc, rep, in); err != nil {
		return fmt.Errorf("store ladder: %w", err)
	}
	if err := ladderFleet(rc, rep, in, cfgs); err != nil {
		return fmt.Errorf("fleet ladder: %w", err)
	}
	return nil
}

// ladderStore appends every device's load trace to a fresh store as
// one series, then queries each series whole and downsampled.
func ladderStore(rc *runCtx, rep *report, in ladderInput) error {
	path := filepath.Join(rc.tmp, "ladder.sdbstor")
	st, err := store.Create(path, store.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer st.Close()
	var appD time.Duration
	var apps int
	var names []string
	for _, id := range in.ids {
		s, _ := in.m.spec(id)
		tr := in.m.traces[s.trace]
		name := fmt.Sprintf("ladder_dev%d_load", id)
		names = append(names, name)
		t0 := time.Now()
		for k := 0; k < tr.Len(); k++ {
			load, _ := tr.Sample(k)
			if err := st.Append(name, ts.KindGauge, tr.DT, float64(k)*tr.DT, load); err != nil {
				return err
			}
		}
		appD += time.Since(t0)
		apps += tr.Len()
	}
	// Appends buffer until Sync writes the pages; both are the cost of
	// getting a sample on disk.
	t0 := time.Now()
	if err := st.Sync(); err != nil {
		return err
	}
	appD += time.Since(t0)
	rep.addLayer("store.append_us", perOp(appD, apps, time.Microsecond), "us")
	rep.addLayer("store.pages_written", float64(st.Stats().PagesWritten), "count")
	st.ResetStats()
	var qD, qdD time.Duration
	end := float64(traceLen * stepDT)
	for _, name := range names {
		t0 := time.Now()
		if _, err := st.Query(name, 0, end); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := st.QueryDown(name, 0, end, 3600); err != nil {
			return err
		}
		qD += t1.Sub(t0)
		qdD += time.Since(t1)
	}
	rep.addLayer("store.query_us", perOp(qD, len(names), time.Microsecond), "us")
	rep.addLayer("store.querydown_us", perOp(qdD, len(names), time.Microsecond), "us")
	rep.addLayer("store.pages_read", float64(st.Stats().PagesRead), "count")
	return nil
}

// ladderFleet builds a fleet of the ladder's devices, reads queued
// pushes, and takes a checkpoint apart into capture, encode, write,
// decode and rebuild.
func ladderFleet(rc *runCtx, rep *report, in ladderInput, cfgs func() ([]emulator.Config, error)) error {
	cs, err := cfgs()
	if err != nil {
		return err
	}
	f := fleet.New(fleet.Config{Shards: runtime.NumCPU(), Obs: obs.NewRegistry()})
	defer f.Close()
	var addD time.Duration
	for i, cfg := range cs {
		t0 := time.Now()
		if err := f.Add(in.ids[i], cfg); err != nil {
			return err
		}
		addD += time.Since(t0)
	}
	rep.addLayer("fleet.add_us", perOp(addD, len(cs), time.Microsecond), "us")

	// Pushes: tick with a subscriber that reads nothing, then time
	// ReadPush on frames that are already waiting.
	srv, cli := net.Pipe()
	go f.Serve(srv)
	defer cli.Close()
	c := pmic.NewClient(cli)
	c.Timeout = 5 * time.Second
	if _, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigMetrics}); err != nil {
		return err
	}
	const pushes = 16
	for i := 0; i < pushes; i++ {
		f.Tick(8)
	}
	var rpD time.Duration
	for i := 0; i < pushes; i++ {
		t0 := time.Now()
		if _, err := c.ReadPush(5 * time.Second); err != nil {
			return err
		}
		rpD += time.Since(t0)
	}
	rep.addLayer("pmic.readpush_us", perOp(rpD, pushes, time.Microsecond), "us")

	// Checkpoint phases, mid-trace.
	for f.Tick(8) > 0 && f.Stat().Steps < uint64(len(cs)*traceLen/2) {
	}
	path := filepath.Join(rc.tmp, "ladder.sdbsnap")
	defer os.Remove(path)
	var capt, enc, wr, dec, reb []float64
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		snap := f.Snapshot()
		capt = append(capt, ms(t0))
		var buf bytes.Buffer
		t0 = time.Now()
		if err := snapshot.Encode(&buf, snap); err != nil {
			return err
		}
		enc = append(enc, ms(t0))
		t0 = time.Now()
		if _, err := snapshot.WriteFileAtomic(path, snap); err != nil {
			return err
		}
		wr = append(wr, ms(t0))
		t0 = time.Now()
		back, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			return err
		}
		dec = append(dec, ms(t0))
		t0 = time.Now()
		rf, err := fleet.FromSnapshot(back, fleet.Config{
			Shards: runtime.NumCPU(), Obs: obs.NewRegistry(),
			Provision: func(id uint16) (emulator.Config, error) {
				s, err := in.m.spec(id)
				if err != nil {
					return emulator.Config{}, err
				}
				return in.m.config(s)
			},
		})
		if err != nil {
			return err
		}
		reb = append(reb, ms(t0))
		rf.Close()
	}
	rep.addLayer("snapshot.capture_ms", median(capt), "ms")
	rep.addLayer("snapshot.encode_ms", median(enc), "ms")
	rep.addLayer("snapshot.write_ms", median(wr), "ms")
	rep.addLayer("snapshot.decode_ms", median(dec), "ms")
	rep.addLayer("fleet.rebuild_ms", median(reb), "ms")
	return nil
}
