package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"sdb/internal/emulator"
	"sdb/internal/fleet"
	"sdb/internal/obs"
	"sdb/internal/obs/ts"
	"sdb/internal/obs/ts/store"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

const (
	// telDevices is a tenth of the drain fleet: small enough that the
	// tick barrier (alerts, recording, push fan-out) is a large share
	// of every tick.
	telDevices = 1000
	// telTick is steps per tick. Short ticks mean many barriers.
	telTick = 8
	// telGrid is the recording grid in sim seconds: one tick.
	telGrid = telTick * stepDT
	// telTicks is how many ticks drain one trace.
	telTicks = traceLen / telTick
	// ckptEvery is the checkpoint period in ticks.
	ckptEvery = 40
	// telSample is how many devices the series, query and restore
	// checks look at.
	telSample = 16
	// querySet is the number of Query and of QueryDown windows.
	querySet = 64
	// obsShare of telemetry devices carry a per-device obs registry.
	obsShare = 0.25
)

// telRule is one fleet alert rule: soc below a threshold, held for a
// duration. The DSL text is rendered from it, and the firing check
// evaluates it independently of the program's rule engine.
type telRule struct {
	name  string
	below float64
	forS  float64
}

var telRules = []telRule{
	{"lowsoc", 0.35, 3 * telGrid},
	{"empty", 0.02, 0},
}

func telRuleSrc() string {
	var sb strings.Builder
	for _, r := range telRules {
		fmt.Fprintf(&sb, "alert %s soc < %g", r.name, r.below)
		if r.forS > 0 {
			fmt.Fprintf(&sb, " for %gs", r.forS)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// telRound is one fleet-telemetry round's measurements.
type telRound struct {
	setup, setupCPU       time.Duration
	drain, query, restore time.Duration
	cpu                   time.Duration // over drain, query and restore
	heap                  float64
	ckpt                  []float64 // seconds per checkpoint
	lag                   []float64 // ms per push
	storeMB, ckptMB       float64
	steps                 uint64
	frames, dropped       uint64
	attempted, failed     int64
	probeErr              error // the plateau probe's failure, if any
}

// runTelemetry drains a 1k-device fleet in short ticks with alert
// rules, recording into a store, live subscribers and periodic
// checkpoints; then queries the store and restores the last
// checkpoint.
func runTelemetry(rc *runCtx) *report {
	rep := &report{}
	rules, err := ts.ParseRules(telRuleSrc())
	if err == nil {
		err = fleet.ValidateRules(rules)
	}
	if err != nil {
		rep.fail(fmt.Errorf("fleet-telemetry: rules: %w", err))
		return rep
	}
	var rounds []*telRound
	var tks tickStats
	var mem *memDelta
	var last *mix
	win := window{seconds: rc.seconds}
	for win.more() {
		rc.tr.setRun(win.rounds)
		if mem == nil {
			mem = startMem()
		}
		r, m, err := telemetryRound(rc, rules, win.rounds, &tks)
		if err != nil {
			rep.fail(fmt.Errorf("fleet-telemetry: round %d: %w", win.rounds, err))
			return rep
		}
		win.done(r.drain+r.query+r.restore, r.cpu)
		rounds = append(rounds, r)
		rep.attempted += r.attempted
		rep.failed += r.failed
		if r.probeErr != nil && win.rounds == 1 {
			fmt.Fprintln(os.Stderr, "sdbperf: failed operation (every round):", r.probeErr)
		}
		last = m
	}
	var setup, setupWall, heap, rates, query, restore, ckpt, lag, storeMB, ckptMB []float64
	var frames, dropped uint64
	var steps float64
	for _, r := range rounds {
		steps += float64(r.steps)
		setup = append(setup, r.setupCPU.Seconds())
		setupWall = append(setupWall, r.setup.Seconds())
		heap = append(heap, r.heap)
		rates = append(rates, float64(r.steps)/(r.drain+r.query+r.restore).Seconds())
		query = append(query, r.query.Seconds())
		restore = append(restore, r.restore.Seconds())
		ckpt = append(ckpt, r.ckpt...)
		lag = append(lag, r.lag...)
		storeMB = append(storeMB, r.storeMB)
		ckptMB = append(ckptMB, r.ckptMB)
		frames += r.frames
		dropped += r.dropped
	}
	rep.add("setup_s", median(setup), "s")
	rep.add("setup_wall_s", median(setupWall), "s")
	rep.add("steps_per_s", median(rates), "steps/s")
	rep.addCPU(win, steps)
	rep.add("heap_mb", median(heap), "MB")
	rep.addLatency("push_lag", lag, "ms")
	rep.add("checkpoint_s", median(ckpt), "s")
	rep.add("restore_s", median(restore), "s")
	rep.add("query_s", median(query), "s")
	rep.add("store_mb", median(storeMB), "MB")
	rep.add("checkpoint_mb", median(ckptMB), "MB")
	last.slowSteps().add(rep)
	if rc.tr != nil {
		n := float64(len(rounds))
		mem.addRuntime(rep, len(rounds))
		tks.addLayers(rep)
		rep.addLayer("subs.frames", float64(frames)/n, "count")
		rep.addLayer("subs.dropped", float64(dropped)/n, "count")
		in := ladderInput{m: last, ids: last.sample(rand.New(rand.NewSource(rc.seed)), 64),
			traces: func() []*workload.Trace { return buildTraces(rc.seed) }}
		rep.fail(runLadder(rc, rep, in))
	}
	return rep
}

// subscriber is one live push connection and what its reader saw.
type subscriber struct {
	c        *pmic.Client
	id       uint64
	want     chan uint64 // the ledger's count, sent once the drain ends
	done     chan error
	received uint64
	lag      []float64
}

// readPushes reads every push until it has the count the ledger owes,
// then confirms the stream is silent. Lag is measured from the start
// of the tick whose barrier produced the frame.
func (s *subscriber) readPushes(tickStart []atomic.Int64, base time.Time, tr *tracer, parent int32) {
	owed, known := uint64(0), false
	for {
		if !known {
			select {
			case owed = <-s.want:
				known = true
			default:
			}
		}
		if known && s.received >= owed {
			if _, err := s.c.ReadPush(50 * time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
				s.done <- fmt.Errorf("subscription %d: frame beyond the %d the ledger owes (err=%v)", s.id, owed, err)
				return
			}
			s.done <- nil
			return
		}
		sp := tr.begin("pmic.ReadPush", parent)
		p, err := s.c.ReadPush(100 * time.Millisecond)
		tr.end(sp)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if err != nil {
			s.done <- fmt.Errorf("subscription %d: %w", s.id, err)
			return
		}
		at := time.Since(base)
		s.received++
		if n := pushTick(p); n >= 1 && n < len(tickStart) {
			s.lag = append(s.lag, float64(at-time.Duration(tickStart[n].Load()))/1e6)
		}
	}
}

// pushTick maps a push to the tick whose barrier produced it: every
// device steps telTick samples of stepDT per tick and all traces have
// one length, so the newest sim time in the frame names the tick.
func pushTick(p *pmic.Push) int {
	var t float64
	for _, d := range p.Devices {
		t = math.Max(t, d.TimeS)
	}
	for _, a := range p.Alerts {
		t = math.Max(t, a.TimeS)
	}
	return int(math.Round(t / telGrid))
}

// checkLedger requires every subscriber to have received exactly the
// frames the server pushed minus those it dropped.
func checkLedger(received map[uint64]uint64, stats []pmic.SubStat) error {
	if len(received) != len(stats) {
		return fmt.Errorf("%d subscribers, server lists %d subscriptions", len(received), len(stats))
	}
	for _, st := range stats {
		got, ok := received[st.ID]
		if !ok {
			return fmt.Errorf("server lists unknown subscription %d", st.ID)
		}
		if got != st.Pushed-st.Dropped {
			return fmt.Errorf("subscription %d received %d frames, server pushed %d and dropped %d",
				st.ID, got, st.Pushed, st.Dropped)
		}
	}
	return nil
}

// telemetryRound runs one round: set-up, drain, queries, restore.
func telemetryRound(rc *runCtx, rules []ts.Rule, round int, tks *tickStats) (*telRound, *mix, error) {
	r := &telRound{}
	shards := runtime.NumCPU()
	dir := filepath.Join(rc.tmp, fmt.Sprintf("round%d", round))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	// The round span parents every layer call of the round; its self
	// time is the benchmark's own work (store and subscriber set-up,
	// checks).
	rs := rc.tr.begin("fleet-telemetry.round", -1)
	defer rc.tr.end(rs)
	storePath, ckptPath := filepath.Join(dir, "fleet.sdbstor"), filepath.Join(dir, "fleet.sdbsnap")

	runtime.GC() // see buildFleet
	t0, c0 := time.Now(), cpuTime()
	st, err := store.Create(storePath, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	sp := rc.tr.begin("fleet.build", rs)
	bf, err := buildFleet(rc.seed, telDevices, obsShare, fleet.Config{
		Shards: shards, Rules: rules, Record: st, RecordEvery: 1,
	})
	rc.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	f, m := bf.f, bf.m
	defer f.Close()
	var subs []*subscriber
	for i := 0; i < shards; i++ {
		srv, cli := net.Pipe()
		go f.Serve(srv)
		defer cli.Close()
		c := pmic.NewClient(cli)
		c.Timeout = 5 * time.Second
		id, err := c.Subscribe(pmic.SubscriptionSpec{Fleet: true, Signals: pmic.SubSigMetrics | pmic.SubSigAlerts})
		if err != nil {
			return nil, nil, fmt.Errorf("subscribe: %w", err)
		}
		subs = append(subs, &subscriber{c: c, id: id, want: make(chan uint64, 1), done: make(chan error, 1)})
	}
	r.setup, r.setupCPU = time.Since(t0), cpuTime()-c0
	r.heap = heapMB()

	// Drain.
	tickStart := make([]atomic.Int64, telTicks+2)
	base := time.Now()
	for _, s := range subs {
		go s.readPushes(tickStart, base, rc.tr, rs)
	}
	clock := newShardClock(bf.reg, shards)
	lastCkpt, ticks := 0, 0
	t0, c0 = time.Now(), cpuTime()
	for n := 1; ; n++ {
		ticks = n
		if n < len(tickStart) {
			tickStart[n].Store(int64(time.Since(base)))
		}
		sp := rc.tr.begin("fleet.Tick", rs)
		var before []float64
		if rc.tr != nil {
			before = clock.read()
		}
		tt := time.Now()
		active := f.Tick(telTick)
		if rc.tr != nil {
			tks.observe(time.Since(tt), before, clock.read())
		}
		rc.tr.end(sp)
		if active > 0 && n%ckptEvery == 0 {
			sp := rc.tr.begin("fleet.WriteCheckpoint", rs)
			tc := time.Now()
			_, err := f.WriteCheckpoint(ckptPath)
			r.ckpt = append(r.ckpt, time.Since(tc).Seconds())
			rc.tr.end(sp)
			r.attempted++
			if err != nil {
				r.failed++
				return nil, nil, fmt.Errorf("checkpoint at tick %d: %w", n, err)
			}
			lastCkpt = n
		}
		if active == 0 {
			break
		}
	}
	r.drain, r.cpu = time.Since(t0), cpuTime()-c0
	fst := f.Stat()
	r.steps = fst.Steps
	tks.steps += fst.Steps
	if lastCkpt == 0 {
		return nil, nil, errors.New("drain ended before the first checkpoint")
	}
	if err := f.RecordErr(); err != nil {
		return nil, nil, err
	}
	if err := st.Sync(); err != nil {
		return nil, nil, err
	}
	if fi, err := os.Stat(storePath); err == nil {
		r.storeMB = float64(fi.Size()) / 1e6
	}
	if fi, err := os.Stat(ckptPath); err == nil {
		r.ckptMB = float64(fi.Size()) / 1e6
	}

	// Push ledger.
	stats := f.SubStats()
	owed := map[uint64]uint64{}
	for _, s := range stats {
		owed[s.ID] = s.Pushed - s.Dropped
		r.dropped += s.Dropped
	}
	for _, s := range subs {
		s.want <- owed[s.id]
	}
	received := map[uint64]uint64{}
	for _, s := range subs {
		if err := <-s.done; err != nil {
			return nil, nil, err
		}
		received[s.id] = s.received
		r.frames += s.received
		r.lag = append(r.lag, s.lag...)
	}
	// A push is one barrier's metrics (and alerts) to one subscriber;
	// every barrier pushes at least the fleet rollup to each. The frames
	// it takes depend on the data, so they are reported, not counted.
	r.attempted += int64(ticks * len(subs))
	if err := checkLedger(received, stats); err != nil {
		return nil, nil, err
	}

	// Query set.
	rng := rand.New(rand.NewSource(rc.seed*7919 + int64(round)))
	sample := m.sample(rng, telSample)
	qs := makeQueries(rng, sample)
	t0, c0 = time.Now(), cpuTime()
	results, err := runQueries(st, qs, rc.tr, rs)
	r.query = time.Since(t0)
	r.cpu += cpuTime() - c0
	r.attempted += int64(2 * len(qs))
	if err != nil {
		r.failed++
		return nil, nil, err
	}
	if err := checkQueries(st, qs, results); err != nil {
		return nil, nil, err
	}
	if err := checkFirings(st, f.AlertTransitions()); err != nil {
		return nil, nil, err
	}
	r.attempted++
	if err := plateauProbe(filepath.Join(dir, "probe.sdbstor"), rc.tr, rs); errors.Is(err, errPlateau) {
		r.failed++
		r.probeErr = err
	} else if err != nil {
		return nil, nil, err
	}

	// Restore the last checkpoint, then check it re-encodes to the same
	// bytes and finishes the drain as the original did.
	sp = rc.tr.begin("fleet.RestoreFile", rs)
	t0, c0 = time.Now(), cpuTime()
	rf, err := fleet.RestoreFile(ckptPath, fleet.Config{
		Shards: shards, Obs: obs.NewRegistry(),
		Provision: func(id uint16) (emulator.Config, error) {
			s, err := m.spec(id)
			if err != nil {
				return emulator.Config{}, err
			}
			return m.config(s)
		},
	})
	r.restore = time.Since(t0)
	r.cpu += cpuTime() - c0
	rc.tr.end(sp)
	r.attempted++
	if err != nil {
		r.failed++
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	defer rf.Close()
	if err := checkRestore(f, rf, ckptPath, sample); err != nil {
		return nil, nil, err
	}
	return r, m, nil
}

// checkRestore: the restored fleet re-checkpoints to the file's bytes
// and, run to completion, matches the original on the sampled devices.
func checkRestore(orig, rf *fleet.Fleet, path string, sample []uint16) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rf.Checkpoint(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return errors.New("restored fleet re-checkpoints to different bytes")
	}
	rf.RunToCompletion(telTick)
	got, ref := map[uint16]uint64{}, map[uint16]uint64{}
	for _, id := range sample {
		a, err := rf.Result(id)
		if err != nil {
			return fmt.Errorf("restored device %d: %w", id, err)
		}
		b, err := orig.Result(id)
		if err != nil {
			return fmt.Errorf("device %d: %w", id, err)
		}
		got[id], ref[id] = digest(a), digest(b)
	}
	if err := checkReplays(got, ref); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	return nil
}

// query is one seeded store read: a raw window over series, and a
// downsampled one over the same device's steps series and span.
type query struct {
	series  string
	steps   bool // series is the steps series (else soc)
	t0, t1  float64
	bucketS float64
}

// down is the query's downsampled read. It is always over the steps
// series: QueryDown over a soc series fails min <= mean <= max on some
// seeds, where a device's SoC sits on its charge plateau (see
// plateauProbe), so those reads are left out of the seeded set.
func (q query) down() query {
	d := q
	if !q.steps {
		d.series = strings.TrimSuffix(q.series, "_soc") + "_steps"
		d.steps = true
	}
	return d
}

// makeQueries draws the query set. Window edges sit half a grid step
// off the grid, so which samples a window holds is never a rounding
// question.
func makeQueries(rng *rand.Rand, sample []uint16) []query {
	var qs []query
	for i := 0; i < querySet; i++ {
		id := sample[rng.Intn(len(sample))]
		q := query{steps: rng.Intn(2) == 0}
		suffix := "soc"
		if q.steps {
			suffix = "steps"
		}
		q.series = fmt.Sprintf("sdb_fleet_dev%d_%s", id, suffix)
		a := rng.Intn(telTicks)
		b := a + 1 + rng.Intn(telTicks-a)
		q.t0, q.t1 = float64(a)*telGrid-telGrid/2, float64(b)*telGrid+telGrid/2
		q.bucketS = telGrid * float64(int(4)<<rng.Intn(3))
		qs = append(qs, q)
	}
	return qs
}

type queryResult struct {
	win     ts.Window
	buckets []store.Bucket
}

func runQueries(st *store.Store, qs []query, tr *tracer, parent int32) ([]queryResult, error) {
	out := make([]queryResult, len(qs))
	for i, q := range qs {
		sp := tr.begin("store.Query", parent)
		w, err := st.Query(q.series, q.t0, q.t1)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("query %s [%g, %g]: %w", q.series, q.t0, q.t1, err)
		}
		d := q.down()
		sp = tr.begin("store.QueryDown", parent)
		b, err := st.QueryDown(d.series, d.t0, d.t1, d.bucketS)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("querydown %s [%g, %g] / %g: %w", d.series, d.t0, d.t1, d.bucketS, err)
		}
		out[i] = queryResult{w, b}
	}
	return out, nil
}

// checkWindow checks one raw window against the recording grid: it
// holds exactly the grid points k*telGrid (k = 1..telTicks) inside
// [t0, t1], SoC stays in [0,1], and the steps series equals the step
// count the grid implies (t / stepDT).
func checkWindow(q query, w ts.Window) error {
	lo := int(math.Ceil(q.t0 / telGrid))
	hi := int(math.Floor(q.t1 / telGrid))
	lo, hi = max(lo, 1), min(hi, telTicks)
	if n := hi - lo + 1; len(w.Values) != n {
		return fmt.Errorf("%s [%g, %g]: %d samples, grid has %d", q.series, q.t0, q.t1, len(w.Values), n)
	}
	if w.StepS != telGrid || w.FirstT != float64(lo*telGrid) {
		return fmt.Errorf("%s [%g, %g]: window starts at %g step %g, grid point is %d step %d",
			q.series, q.t0, q.t1, w.FirstT, w.StepS, lo*telGrid, telGrid)
	}
	for i, v := range w.Values {
		t := w.FirstT + float64(i)*w.StepS
		if q.steps && v != t/stepDT {
			return fmt.Errorf("%s at t=%g: %g steps, grid implies %g", q.series, t, v, t/stepDT)
		}
		if !q.steps && !(v >= 0 && v <= 1) {
			return fmt.Errorf("%s at t=%g: SoC %g outside [0,1]", q.series, t, v)
		}
	}
	return nil
}

// checkBuckets checks each downsampled bucket against the raw samples
// it covers, read separately: min <= mean <= max, and count, min, max
// and mean equal the benchmark's own aggregation of the raw points.
func checkBuckets(q query, bs []store.Bucket, raw func(t0, t1 float64) (ts.Window, error)) error {
	if len(bs) == 0 {
		return fmt.Errorf("%s [%g, %g]: no buckets", q.series, q.t0, q.t1)
	}
	for _, b := range bs {
		mean := b.Mean()
		if !(b.Min <= mean && mean <= b.Max) {
			return fmt.Errorf("%s bucket %g: min %.17g mean %.17g max %.17g", q.series, b.T0, b.Min, mean, b.Max)
		}
		w, err := raw(b.T0, b.T0+q.bucketS-telGrid/2)
		if err != nil {
			return err
		}
		if len(w.Values) == 0 {
			return fmt.Errorf("%s bucket %g: no raw samples", q.series, b.T0)
		}
		sum, mn, mx := 0.0, math.Inf(1), math.Inf(-1)
		for _, v := range w.Values {
			sum += v
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		if b.Count != uint64(len(w.Values)) || b.Min != mn || b.Max != mx || mean != sum/float64(len(w.Values)) {
			return fmt.Errorf("%s bucket %g: count %d min %g max %g mean %g, raw points give %d %g %g %g",
				q.series, b.T0, b.Count, b.Min, b.Max, mean, len(w.Values), mn, mx, sum/float64(len(w.Values)))
		}
	}
	return nil
}

func checkQueries(st *store.Store, qs []query, res []queryResult) error {
	for i, q := range qs {
		if err := checkWindow(q, res[i].win); err != nil {
			return err
		}
		d := q.down()
		raw := func(t0, t1 float64) (ts.Window, error) { return st.Query(d.series, t0, t1) }
		if err := checkBuckets(d, res[i].buckets, raw); err != nil {
			return err
		}
	}
	return nil
}

// The plateau probe is one QueryDown on fixed inputs that exposes a
// fault in the store: Bucket.Mean is Sum/Count, and sixteen equal
// samples read back a mean one ulp above the bucket's max. The value is
// the SoC a fleet-telemetry device's soc series held on its charge
// plateau, where seeded QueryDowns over soc series met the same fault.
const (
	plateauSoC    = 0.99999953703703703
	plateauLen    = 16
	plateauSeries = "sdbperf_plateau_soc"
)

// errPlateau marks a probe whose buckets failed checkBuckets.
var errPlateau = errors.New("plateau probe")

// plateauProbe records plateauLen equal samples on the telemetry grid
// in a fresh store at path and checks one QueryDown bucket over them.
// It returns an error wrapping errPlateau while the fault stands, and
// another error if the store itself fails.
func plateauProbe(path string, tr *tracer, parent int32) error {
	st, err := store.Create(path, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	for k := 1; k <= plateauLen; k++ {
		if err := st.Append(plateauSeries, ts.KindGauge, telGrid, float64(k*telGrid), plateauSoC); err != nil {
			return err
		}
	}
	q := query{series: plateauSeries, t0: 0, t1: plateauLen*telGrid + telGrid/2, bucketS: (plateauLen + 1) * telGrid}
	sp := tr.begin("store.QueryDown", parent)
	bs, err := st.QueryDown(q.series, q.t0, q.t1, q.bucketS)
	tr.end(sp)
	if err != nil {
		return err
	}
	raw := func(t0, t1 float64) (ts.Window, error) { return st.Query(q.series, t0, t1) }
	if err := checkBuckets(q, bs, raw); err != nil {
		return fmt.Errorf("%w: %w", errPlateau, err)
	}
	return nil
}

// checkFirings requires every transition into firing to be justified
// by the stored SoC series: the stored value at the transition is the
// one the transition reports, and it and every stored value in the
// rule's hold window lie below the threshold.
func checkFirings(st *store.Store, trs []fleet.AlertTransition) error {
	fired := 0
	for _, tr := range trs {
		if tr.To != ts.StateFiring {
			continue
		}
		fired++
		w, err := st.Query(fmt.Sprintf("sdb_fleet_dev%d_soc", tr.Device), 0, tr.TimeS+telGrid/2)
		if err != nil {
			return fmt.Errorf("firing %s: %w", tr, err)
		}
		if err := justifyFiring(tr, w); err != nil {
			return err
		}
	}
	if fired == 0 {
		return errors.New("no alert fired")
	}
	return nil
}

// justifyFiring checks one firing transition against its device's
// stored SoC series, read from the start up to the transition.
func justifyFiring(tr fleet.AlertTransition, w ts.Window) error {
	var rule *telRule
	for i := range telRules {
		if telRules[i].name == tr.Rule {
			rule = &telRules[i]
		}
	}
	if rule == nil {
		return fmt.Errorf("firing %s: unknown rule", tr)
	}
	n := len(w.Values)
	if n == 0 || w.FirstT+float64(n-1)*w.StepS != tr.TimeS || w.Values[n-1] != tr.Value {
		return fmt.Errorf("firing %s: stored series does not end at the transition with its value", tr)
	}
	for i := n - 1; i >= 0; i-- {
		t := w.FirstT + float64(i)*w.StepS
		if t < tr.TimeS-rule.forS {
			break
		}
		if !(w.Values[i] < rule.below) {
			return fmt.Errorf("firing %s: stored SoC %g at t=%g is not below %g", tr, w.Values[i], t, rule.below)
		}
	}
	return nil
}
