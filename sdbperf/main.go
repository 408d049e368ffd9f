// Command sdbperf is the SDB stack benchmark. One invocation runs one
// seeded workload for a fixed window, checks every output against
// properties the method must have (or against a computation made apart
// from the code under test), and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the gated end-to-end set; with -trace 1
// the benchmark also records spans around every call into a layer,
// runs a ladder of direct layer calls after the window, prints the
// per-layer table, writes the spans, and the metrics are the per-layer
// set. Build and run it through run.sh (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int64
	// e2e is every end-to-end metric the workload's traffic exercises,
	// in print order. Only gatedE2E reach the JSON line.
	e2e []metric
	// layer holds the per-layer metrics (traced runs only).
	layer []metric
	// err is the first failed output check; nil when every check held.
	err error
}

func (r *report) add(name string, v float64, unit string) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *report) addLayer(name string, v float64, unit string) {
	r.layer = append(r.layer, metric{name, v, unit})
}

// fail keeps the first failed check.
func (r *report) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// gatedE2E are the end-to-end metrics every workload measures and the
// ones the JSON line carries with -trace 0; the rest of a workload's
// end-to-end table is printed above the JSON line. Set-up and stepping
// are gated in process CPU time: on a shared host, wall-clock
// steps_per_s and set-up time move with the time the hypervisor gives
// other guests, most on the barrier-heavy fleet-telemetry workload.
var gatedE2E = []string{"setup_s", "cpu_ns_per_step", "heap_mb"}

// layerMetrics is the fixed per-layer set the JSON line carries with
// -trace 1, with units. A workload that never calls a layer reports 0
// for its traffic-derived metrics (for example fleet.tick_ms on paper).
var layerMetrics = []struct{ name, unit string }{
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"battery.cell_step_ns", "ns"},
	{"pmic.step_ns", "ns"},
	{"core.update_ns", "ns"},
	{"core.update_allocs", "count"},
	{"emulator.step_ns", "ns"},
	{"emulator.allocs_per_step", "count"},
	{"fleet.device_step_ns", "ns"},
	{"fleet.slow_step_share", "%"},
	{"fleet.tick_ms", "ms"},
	{"fleet.shard_ms", "ms"},
	{"fleet.straggler_ms", "ms"},
	{"fleet.barrier_ms", "ms"},
	{"fleet.add_us", "us"},
	{"workload.trace_build_ms", "ms"},
	{"bus.encode_ns", "ns"},
	{"bus.decode_ns", "ns"},
	{"pmic.dispatch_us", "us"},
	{"cmd.late_us", "us"},
	{"subs.frames", "count"},
	{"subs.dropped", "count"},
	{"pmic.readpush_us", "us"},
	{"store.append_us", "us"},
	{"store.pages_written", "count"},
	{"store.query_us", "us"},
	{"store.querydown_us", "us"},
	{"store.pages_read", "count"},
	{"snapshot.capture_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.write_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"fleet.rebuild_ms", "ms"},
}

// simLayerIDs are the experiments whose sim.<id>.* metrics the JSON
// line carries: the ones that do nearly all of paper's stepping.
var simLayerIDs = []string{"figure-1b", "figure-11c", "figure-13", "figure-14", "ext-year", "ablation-directive"}

// runCtx is what every workload receives.
type runCtx struct {
	seed    int64
	seconds float64
	tr      *tracer // nil unless -trace 1
	tmp     string  // scratch directory inside the working directory
}

var workloads = map[string]func(*runCtx) *report{
	"paper":           runPaper,
	"fleet-drain":     runDrain,
	"fleet-telemetry": runTelemetry,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper, fleet-drain or fleet-telemetry")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spansPath := flag.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>-<seed>.json)")
	client := flag.String("cmd-client", "", "internal: run as fleet-drain's command client against this address")
	round := flag.Int("round", 0, "internal: the command client's round")
	setupChild := flag.Bool("setup-child", false, "internal: time paper's set-up in this fresh process")
	flag.Parse()
	if *client != "" {
		return runClient(*client, *seed, *round)
	}
	if *setupChild {
		return runSetupChild()
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "sdbperf: need -workload (paper, fleet-drain, fleet-telemetry), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sdbperf:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "sdbperf-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdbperf:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rc := &runCtx{seed: *seed, seconds: *seconds, tmp: tmp}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	rep := fn(rc)

	fmt.Printf("host: %d cores, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("workload %s seed %d: attempted %d, failed %d\n", *name, *seed, rep.attempted, rep.failed)
	printTable("end-to-end", rep.e2e)

	out := map[string]jsonMetric{}
	if rc.tr != nil {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		}
		if err := rc.tr.write(path); err != nil {
			rep.fail(fmt.Errorf("writing spans: %w", err))
		}
		rc.tr.printSelf()
		printTable("per-layer", rep.layer)
		have := map[string]metric{}
		for _, m := range rep.layer {
			have[m.Name] = m
		}
		for _, lm := range allLayerMetrics() {
			out[lm.name] = jsonMetric{have[lm.name].Value, lm.unit}
		}
	} else {
		have := map[string]metric{}
		for _, m := range rep.e2e {
			have[m.Name] = m
		}
		for _, n := range gatedE2E {
			m, ok := have[n]
			if !ok {
				rep.fail(fmt.Errorf("workload reported no %s", n))
				continue
			}
			out[n] = jsonMetric{m.Value, m.Unit}
		}
	}
	if rep.err != nil {
		fmt.Fprintln(os.Stderr, "sdbperf: check failed:", rep.err)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.err == nil, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdbperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.err != nil {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// allLayerMetrics is layerMetrics plus the sim.<id>.* entries.
func allLayerMetrics() []struct{ name, unit string } {
	out := append([]struct{ name, unit string }(nil), layerMetrics...)
	for _, id := range simLayerIDs {
		out = append(out,
			struct{ name, unit string }{"sim." + id + ".s", "s"},
			struct{ name, unit string }{"sim." + id + ".steps", "count"},
			struct{ name, unit string }{"sim." + id + ".allocs_per_step", "count"})
	}
	return out
}

func printTable(title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Printf("%s:\n", title)
	for _, m := range ms {
		fmt.Printf("  %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

// window times the workload's rounds: it says whether another round
// should start and accumulates the wall and CPU time spent inside them.
type window struct {
	seconds    float64
	spent, cpu time.Duration
	rounds     int
}

// more reports whether another round should run: always the first,
// then until the rounds have used the window.
func (w *window) more() bool { return w.rounds == 0 || w.spent.Seconds() < w.seconds }

func (w *window) done(wall, cpu time.Duration) {
	w.spent += wall
	w.cpu += cpu
	w.rounds++
}

// cpuTime returns the CPU time (user and system, all threads) the
// process has used, in nanoseconds (CLOCK_PROCESS_CPUTIME_ID). Time
// the hypervisor gives to other guests is not in it, which makes CPU
// per step steadier than wall-clock throughput on a shared host.
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// addCPU reports cpu_ns_per_step: process CPU time per firmware step
// over the window.
func (r *report) addCPU(w window, steps float64) {
	r.add("cpu_ns_per_step", float64(w.cpu.Nanoseconds())/steps, "ns")
}

// median returns the middle value (mean of the two middle values for
// an even count) of xs; 0 for none. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// addLatency adds name_p50 and, when at least ten samples lie beyond
// it, name_p99 — the highest percentile that still has a tail.
func (r *report) addLatency(name string, samples []float64, unit string) {
	if len(samples) == 0 {
		return
	}
	r.add(name+"_p50_"+unit, median(samples), unit)
	if len(samples)/100 >= 10 {
		r.add(name+"_p99_"+unit, quantile(samples, 0.99), unit)
	}
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memDelta snapshots the runtime counters a per-layer report needs.
type memDelta struct{ ms runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.ms)
	return d
}

// addRuntime reports allocation, GC cycles and GC pause per round
// since the snapshot.
func (d *memDelta) addRuntime(r *report, rounds int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	n := float64(rounds)
	if n < 1 {
		n = 1
	}
	r.addLayer("runtime.alloc_mb", float64(now.TotalAlloc-d.ms.TotalAlloc)/1e6/n, "MB")
	r.addLayer("runtime.gc_cycles", float64(now.NumGC-d.ms.NumGC)/n, "count")
	r.addLayer("runtime.gc_pause_ms", float64(now.PauseTotalNs-d.ms.PauseTotalNs)/1e6/n, "ms")
}

// mallocs returns the process-wide allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
