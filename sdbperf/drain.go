package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sdb/internal/bus"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

const (
	// drainDevices is the fleet-drain fleet size: ROADMAP's 10k-device
	// figure, well inside the 16-bit id space.
	drainDevices = 10000
	// drainTick is steps per tick: the fleet's default batch.
	drainTick = 64
	// cmdRate is the open-loop status-query rate, per second.
	cmdRate = 100
	// replaySample is how many devices per round are checked against a
	// standalone replay.
	replaySample = 16
)

// builtFleet is a populated fleet with its set-up time.
type builtFleet struct {
	f               *fleet.Fleet
	m               *mix
	reg             *obs.Registry
	setup, setupCPU time.Duration
}

// buildFleet generates the mix and registers every device. The
// returned set-up times (wall and process CPU) cover trace generation
// and Add. Callers collect
// garbage first, so each sample times the build and not the collector
// catching up on earlier rounds.
func buildFleet(seed int64, n int, obsShare float64, cfg fleet.Config) (*builtFleet, error) {
	t0, c0 := time.Now(), cpuTime()
	m := newMix(seed, n, obsShare)
	cfg.Obs = obs.NewRegistry()
	f := fleet.New(cfg)
	for _, s := range m.specs {
		ecfg, err := m.config(s)
		if err == nil {
			err = f.Add(s.id, ecfg)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("device %d: %w", s.id, err)
		}
	}
	return &builtFleet{f: f, m: m, reg: cfg.Obs, setup: time.Since(t0), setupCPU: cpuTime() - c0}, nil
}

// shardClock reads each shard's accumulated busy seconds from the
// fleet's own per-shard histograms.
type shardClock []*obs.Histogram

func newShardClock(reg *obs.Registry, shards int) shardClock {
	var sc shardClock
	for i := 0; i < shards; i++ {
		sc = append(sc, reg.Histogram(fmt.Sprintf("sdb_fleet_shard%d_batch_seconds", i), nil))
	}
	return sc
}

func (sc shardClock) read() []float64 {
	out := make([]float64, len(sc))
	for i, h := range sc {
		out[i] = h.Sum()
	}
	return out
}

// tickStats accumulates the traced run's tick breakdown.
type tickStats struct {
	tick, shard, straggler, barrier []float64 // ms per tick
	busy                            float64   // shard-seconds
	steps                           uint64
}

// observe adds one tick: its wall time and each shard's busy time.
func (ts *tickStats) observe(wall time.Duration, before, after []float64) {
	var sum, slowest float64
	for i := range before {
		d := after[i] - before[i]
		sum += d
		slowest = math.Max(slowest, d)
	}
	mean := sum / float64(len(before))
	w := wall.Seconds()
	ts.tick = append(ts.tick, w*1e3)
	ts.shard = append(ts.shard, mean*1e3)
	ts.straggler = append(ts.straggler, (slowest-mean)*1e3)
	ts.barrier = append(ts.barrier, (w-slowest)*1e3)
	ts.busy += sum
}

func (ts *tickStats) addLayers(rep *report) {
	rep.addLayer("fleet.tick_ms", median(ts.tick), "ms")
	rep.addLayer("fleet.shard_ms", median(ts.shard), "ms")
	rep.addLayer("fleet.straggler_ms", median(ts.straggler), "ms")
	rep.addLayer("fleet.barrier_ms", median(ts.barrier), "ms")
	if ts.steps > 0 {
		rep.addLayer("fleet.device_step_ns", ts.busy*1e9/float64(ts.steps), "ns")
	}
}

// checkAnswer checks a status answer against its query and the
// device's pack: matching seq, cmd and device, status OK, one record
// per cell naming that cell, and SoC in [0,1].
func checkAnswer(req, resp bus.Frame, cells []string) error {
	if resp.Seq != req.Seq || resp.Cmd != req.Cmd|pmic.RespFlag || resp.Device != req.Device {
		return fmt.Errorf("answer seq %d cmd %#x device %d to query seq %d cmd %#x device %d",
			resp.Seq, resp.Cmd, resp.Device, req.Seq, req.Cmd, req.Device)
	}
	r := bus.NewReader(resp.Payload)
	if st := r.U8(); st != pmic.StatusOK {
		return fmt.Errorf("device %d: status %#x", req.Device, st)
	}
	if n := int(r.U8()); n != len(cells) {
		return fmt.Errorf("device %d: %d status records for %d cells", req.Device, n, len(cells))
	}
	for i, name := range cells {
		idx, got := int(r.U8()), r.Str()
		r.Str() // chemistry
		soc := r.F64()
		for k := 0; k < 13; k++ {
			r.F64()
		}
		r.U8() // flags
		if idx != i || got != name || !(soc >= 0 && soc <= 1) {
			return fmt.Errorf("device %d record %d: index %d, cell %q (want %q), SoC %g", req.Device, i, idx, got, name, soc)
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("device %d: %w", req.Device, err)
	}
	return nil
}

// runDrain steps a 10k-device fleet to completion, round after round,
// while a client process sends status queries open-loop over one
// connection.
func runDrain(rc *runCtx) *report {
	rep := &report{}
	shards := runtime.NumCPU()
	var setups, setupWall, heaps, lat, late []float64
	var steps uint64
	var ts tickStats
	var mem *memDelta
	win := window{seconds: rc.seconds}
	var last *builtFleet
	// Each round builds its own fleet; two extra builds before the
	// window give set-up at least three samples even when one round
	// fills it.
	for i := 0; i < 2; i++ {
		runtime.GC()
		bf, err := buildFleet(rc.seed, drainDevices, 0, fleet.Config{Shards: shards})
		if err != nil {
			rep.fail(fmt.Errorf("fleet-drain: %w", err))
			return rep
		}
		bf.f.Close()
		setups = append(setups, bf.setupCPU.Seconds())
		setupWall = append(setupWall, bf.setup.Seconds())
	}
	for win.more() {
		rc.tr.setRun(win.rounds)
		// The round span parents every layer call of the round; its self
		// time is the benchmark's own work (warm-up, client start, checks).
		round := rc.tr.begin("fleet-drain.round", -1)
		runtime.GC()
		sp := rc.tr.begin("fleet.build", round)
		bf, err := buildFleet(rc.seed, drainDevices, 0, fleet.Config{Shards: shards})
		rc.tr.end(sp)
		if err != nil {
			rep.fail(fmt.Errorf("fleet-drain: %w", err))
			return rep
		}
		setups = append(setups, bf.setupCPU.Seconds())
		setupWall = append(setupWall, bf.setup.Seconds())
		heaps = append(heaps, heapMB())
		f := bf.f

		// Warm-up tick: first-touch allocation and batch-engine checkout
		// stay out of the window.
		f.Tick(drainTick)
		if mem == nil {
			mem = startMem()
		}
		cp, err := startClient(f, rc.seed, win.rounds)
		if err != nil {
			f.Close()
			rep.fail(fmt.Errorf("fleet-drain: command client: %w", err))
			return rep
		}
		clock := newShardClock(bf.reg, shards)
		steps0 := f.Stat().Steps
		t0, c0 := time.Now(), cpuTime()
		for {
			sp := rc.tr.begin("fleet.Tick", round)
			var before []float64
			if rc.tr != nil {
				before = clock.read()
			}
			tt := time.Now()
			active := f.Tick(drainTick)
			wall := time.Since(tt)
			if rc.tr != nil {
				ts.observe(wall, before, clock.read())
			}
			rc.tr.end(sp)
			if active == 0 {
				break
			}
		}
		d, cpu := time.Since(t0), cpuTime()-c0
		cr, err := cp.stop(rc.tr, round)
		if err != nil {
			f.Close()
			rep.fail(fmt.Errorf("fleet-drain: command client: %w", err))
			return rep
		}
		win.done(d, cpu)
		st := f.Stat()
		steps += st.Steps - steps0
		ts.steps += st.Steps - steps0
		lat = append(lat, cr.lat...)
		late = append(late, cr.late...)
		rep.attempted += cr.sent
		rep.failed += cr.failed
		rep.fail(cr.err)
		rep.fail(checkDrain(f, bf.m, st.Steps, rand.New(rand.NewSource(rc.seed*31+int64(win.rounds)))))
		f.Close()
		rc.tr.end(round)
		last = bf
	}
	rep.add("setup_s", median(setups), "s")
	rep.add("setup_wall_s", median(setupWall), "s")
	rep.add("steps_per_s", float64(steps)/win.spent.Seconds(), "steps/s")
	rep.addCPU(win, float64(steps))
	rep.add("heap_mb", median(heaps), "MB")
	rep.addLatency("cmd", lat, "us")
	last.m.slowSteps().add(rep)
	if rc.tr != nil {
		mem.addRuntime(rep, win.rounds)
		ts.addLayers(rep)
		rep.addLayer("cmd.late_us", median(late), "us")
		in := ladderInput{m: last.m, ids: last.m.sample(rand.New(rand.NewSource(rc.seed)), 64),
			traces: func() []*workload.Trace { return buildTraces(rc.seed) }}
		rep.fail(runLadder(rc, rep, in))
	}
	return rep
}

// checkDrain checks a drained fleet: no device parked on an error,
// the fleet's step total is the sum of the trace lengths, and sampled
// devices match standalone replays bit for bit.
func checkDrain(f *fleet.Fleet, m *mix, total uint64, rng *rand.Rand) error {
	var want uint64
	for _, s := range m.specs {
		if err := f.Err(s.id); err != nil {
			return fmt.Errorf("fleet-drain: device %d: %w", s.id, err)
		}
		want += uint64(m.traces[s.trace].Len())
	}
	if total != want {
		return fmt.Errorf("fleet-drain: fleet ran %d steps, traces hold %d", total, want)
	}
	got, ref := map[uint16]uint64{}, map[uint16]uint64{}
	for _, id := range m.sample(rng, replaySample) {
		res, err := f.Result(id)
		if err != nil {
			return fmt.Errorf("fleet-drain: device %d: %w", id, err)
		}
		got[id] = digest(res)
		if ref[id], err = m.replay(id); err != nil {
			return fmt.Errorf("fleet-drain: replay %d: %w", id, err)
		}
	}
	if err := checkReplays(got, ref); err != nil {
		return fmt.Errorf("fleet-drain: %w", err)
	}
	return nil
}
