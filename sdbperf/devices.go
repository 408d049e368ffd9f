package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"sdb/internal/battery"
	"sdb/internal/core"
	"sdb/internal/emulator"
	"sdb/internal/obs"
	"sdb/internal/pmic"
	"sdb/internal/workload"
)

// stepDT is every fleet trace's sample period: one firmware step is one
// simulated minute, as in the paper's smartwatch day.
const stepDT = 60

// traceLen is every fleet trace's length in steps: one simulated day.
// Equal lengths make every device finish on the same tick, which the
// push-lag bookkeeping relies on.
const traceLen = 24 * 3600 / stepDT

// chemistries are the library cells fleet packs draw from: the Type 2
// family, fast-charge, Type 3 power, high-density and LiFePO4 cells.
var chemistries = []string{
	"Standard-2000", "Standard-3000", "QuickCharge-2000", "PowerPlus-2500",
	"EnergyMax-4000", "PowerTool-1500", "Slim-5000",
}

// Trace kinds and the share of devices that run each.
const (
	kindConstant = iota // flat discharge
	kindSquare          // bursty discharge
	kindDiurnal         // phone day with morning/evening peaks
	kindCharge          // plugged in: external supply, light load
	numKinds
)

var kindNames = [numKinds]string{"constant", "square", "diurnal", "charge"}
var kindShare = [numKinds]float64{0.3, 0.2, 0.3, 0.2}

// tracesPerKind is the size of each kind's trace pool. Devices share
// traces (a trace is read-only to the emulator), which keeps a 10k
// device fleet's inputs to a few MB.
const tracesPerKind = 32

// spec is one fleet device, drawn from the workload seed. The fleet,
// the restore provisioner and the standalone replays all build their
// emulator.Config from it, so they see the same device.
type spec struct {
	id     uint16
	cells  []string
	soc    float64
	kind   int
	trace  int // index into mix.traces
	policy bool
	obs    bool // carries a per-device obs registry
}

// mix is a seeded fleet: the trace pool plus one spec per device.
type mix struct {
	traces []*workload.Trace
	specs  []spec
}

// strata returns n values in [0,1), one in each interval [i/n, (i+1)/n)
// at a seeded position, in seeded order. Drawing a parameter this way
// varies every input with the seed while keeping the spread of the
// whole set — and so the work it causes — the same for every seed.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, k := range rng.Perm(n) {
		out[i] = (float64(k) + rng.Float64()) / float64(n)
	}
	return out
}

// exact returns n labels in seeded order, label j appearing in the
// proportion shares[j] (the last label takes the rounding).
func exact(rng *rand.Rand, n int, shares []float64) []int {
	out := make([]int, 0, n)
	for j, sh := range shares {
		k := int(math.Round(sh * float64(n)))
		if j == len(shares)-1 {
			k = n - len(out)
		}
		for i := 0; i < k && len(out) < n; i++ {
			out = append(out, j)
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildTraces generates the seeded trace pool, tracesPerKind traces of
// each kind, kind-major.
func buildTraces(seed int64) []*workload.Trace {
	rng := rand.New(rand.NewSource(seed ^ 0x7261636573))
	dur := float64(traceLen * stepDT)
	var out []*workload.Trace
	for k := 0; k < numKinds; k++ {
		a, b, c, d := strata(rng, tracesPerKind), strata(rng, tracesPerKind),
			strata(rng, tracesPerKind), strata(rng, tracesPerKind)
		for i := 0; i < tracesPerKind; i++ {
			name := fmt.Sprintf("%s-%d", kindNames[k], i)
			var tr *workload.Trace
			switch k {
			case kindConstant:
				tr = workload.Constant(name, 0.1+0.25*a[i], dur, stepDT)
			case kindSquare:
				tr = workload.Square(name, 0.05+0.1*a[i], 0.4+0.5*b[i],
					600+3000*c[i], 0.1+0.3*d[i], dur, stepDT)
			case kindDiurnal:
				tr = workload.Diurnal(name, workload.Phone(), rng.Int63(), stepDT)
			case kindCharge:
				tr = workload.ChargeSession(name, 3+7*a[i], 0.1+0.3*b[i], dur, stepDT)
			}
			out = append(out, tr)
		}
	}
	return out
}

// newMix draws n devices (ids 1..n) from seed. obsShare of them carry
// a per-device obs registry. Kinds, pack sizes, policy and obs shares
// are exact and SoC is stratified; the seed decides which device gets
// what, its chemistries, and the traces.
func newMix(seed int64, n int, obsShare float64) *mix {
	m := &mix{traces: buildTraces(seed)}
	rng := rand.New(rand.NewSource(seed))
	kinds := exact(rng, n, kindShare[:])
	sizes := exact(rng, n, []float64{0.25, 0.25, 0.25, 0.25})
	policy := exact(rng, n, []float64{2.0 / 3, 1.0 / 3})
	withObs := exact(rng, n, []float64{1 - obsShare, obsShare})
	socs := strata(rng, n)
	var used [numKinds]int
	for i := 0; i < n; i++ {
		s := spec{id: uint16(i + 1), soc: 0.3 + 0.65*socs[i], kind: kinds[i],
			policy: policy[i] == 1, obs: withObs[i] == 1}
		// A pack holds 1-4 distinct library cells (cell names are unique
		// within a pack).
		for _, c := range rng.Perm(len(chemistries))[:1+sizes[i]] {
			s.cells = append(s.cells, chemistries[c])
		}
		// Devices of a kind take its traces in turn, so each trace
		// drives the same number of devices.
		s.trace = s.kind*tracesPerKind + used[s.kind]%tracesPerKind
		used[s.kind]++
		m.specs = append(m.specs, s)
	}
	return m
}

// spec returns the device with id (ids are 1-based and dense).
func (m *mix) spec(id uint16) (spec, error) {
	if id == 0 || int(id) > len(m.specs) {
		return spec{}, fmt.Errorf("no device %d", id)
	}
	return m.specs[id-1], nil
}

// config builds a fresh emulator.Config for one device: its pack at
// its initial state of charge, default firmware, and a policy runtime
// when the spec has one.
func (m *mix) config(s spec) (emulator.Config, error) {
	cells := make([]*battery.Cell, 0, len(s.cells))
	for _, name := range s.cells {
		p, err := battery.ByName(name)
		if err != nil {
			return emulator.Config{}, err
		}
		c, err := battery.New(p)
		if err != nil {
			return emulator.Config{}, err
		}
		c.SetSoC(s.soc)
		cells = append(cells, c)
	}
	pack, err := battery.NewPack(cells...)
	if err != nil {
		return emulator.Config{}, err
	}
	var reg *obs.Registry
	if s.obs {
		reg = obs.NewRegistry()
	}
	pc := pmic.DefaultConfig(pack)
	pc.Obs = reg
	ctrl, err := pmic.NewController(pc)
	if err != nil {
		return emulator.Config{}, err
	}
	cfg := emulator.Config{
		Controller:   ctrl,
		Trace:        m.traces[s.trace],
		PolicyEveryS: policyEvery * stepDT,
		RecordEveryS: 3600,
		Obs:          reg,
	}
	if s.policy {
		rt, err := core.NewRuntime(ctrl, core.Options{Obs: reg})
		if err != nil {
			return emulator.Config{}, err
		}
		cfg.Runtime = rt
	}
	return cfg, nil
}

// policyEvery is the policy period in steps (PolicyEveryS / stepDT).
const policyEvery = 300 / stepDT

// slowSteps counts the steps the mix's devices take off the fleet's
// batched fast path, by cause. A device with an obs registry steps
// every step on the scalar path; otherwise a step leaves the fast path
// when it carries external power or a negative load, or when it is a
// policy boundary of a device that runs a policy. These are the
// eligibility rules of emulator.Machine.EnableBatch and StepBatch; the
// firmware can refuse a fast segment on further grounds (a transfer in
// flight, an open cell), so the counts are a lower bound.
type slowSteps struct {
	obs, external, policy, total uint64
}

func (m *mix) slowSteps() slowSteps {
	var n slowSteps
	for _, s := range m.specs {
		tr := m.traces[s.trace]
		steps := uint64(tr.Len())
		n.total += steps
		if s.obs {
			n.obs += steps
			continue
		}
		for k := 0; k < tr.Len(); k++ {
			loadW, extW := tr.Sample(k)
			switch {
			case extW != 0 || loadW < 0:
				n.external++
			case s.policy && k%policyEvery == 0:
				n.policy++
			}
		}
	}
	return n
}

// add reports the share of steps off the fast path, whole (also as
// the per-layer fleet.slow_step_share) and by cause, in percent.
func (n slowSteps) add(rep *report) {
	pct := func(x uint64) float64 { return 100 * float64(x) / float64(n.total) }
	rep.add("slow_step_share", pct(n.obs+n.external+n.policy), "%")
	rep.addLayer("fleet.slow_step_share", pct(n.obs+n.external+n.policy), "%")
	rep.add("slow_step_share.obs", pct(n.obs), "%")
	rep.add("slow_step_share.external", pct(n.external), "%")
	rep.add("slow_step_share.policy", pct(n.policy), "%")
}

// sample picks k distinct device ids from the mix, seeded.
func (m *mix) sample(rng *rand.Rand, k int) []uint16 {
	if k > len(m.specs) {
		k = len(m.specs)
	}
	var out []uint16
	for _, i := range rng.Perm(len(m.specs))[:k] {
		out = append(out, m.specs[i].id)
	}
	return out
}

// digest hashes every number of an emulator result by its bits, so two
// results digest equal only if they are bit-identical.
func digest(r *emulator.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	f := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	if s := r.Series; s != nil {
		f(s.T...)
		f(s.LoadW...)
		f(s.DeliveredW...)
		f(s.CircuitLossW...)
		f(s.BatteryLossW...)
		for _, c := range s.SoC {
			f(c...)
		}
	}
	f(r.DrainedAtS)
	f(r.CellDrainedAtS...)
	f(r.DeliveredJ, r.CircuitLossJ, r.BatteryLossJ, r.ChargedJ)
	f(float64(r.BrownoutSteps), float64(r.Steps), r.ElapsedS)
	fm := r.FinalMetrics
	f(fm.RBLJoules, fm.CCB, fm.MeanSoC, fm.TotalCycles)
	return h.Sum64()
}

// replay runs one device alone through emulator.Run from a fresh
// config — the reference the fleet's result must match bit for bit.
func (m *mix) replay(id uint16) (uint64, error) {
	s, err := m.spec(id)
	if err != nil {
		return 0, err
	}
	cfg, err := m.config(s)
	if err != nil {
		return 0, err
	}
	res, err := emulator.Run(cfg)
	if err != nil {
		return 0, err
	}
	return digest(res), nil
}

// checkReplays compares the fleet's digests of the sampled devices
// with standalone replays.
func checkReplays(fleetDigest, replayDigest map[uint16]uint64) error {
	for id, want := range replayDigest {
		got, ok := fleetDigest[id]
		if !ok {
			return fmt.Errorf("device %d: no fleet result", id)
		}
		if got != want {
			return fmt.Errorf("device %d: fleet result differs from its standalone replay", id)
		}
	}
	return nil
}
