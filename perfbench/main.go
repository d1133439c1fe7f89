// Command perfbench is the repository's benchmark. It drives HYDRA only
// from outside — the public pipeline stage functions for training, and
// the real hydra-serve and hydra-router binaries over loopback HTTP for
// serving — on three workloads:
//
//   - train-200: offline linkage of a generated 200-person world,
//     Systemize → Block → Fit → Evaluate → Bundle → SaveBundle.
//   - sweep-8k: a closed loop of top-k queries over distinct accounts of
//     an 8 000-account tiled bundle served by hydra-serve -mmap.
//   - interactive-routed: an open loop of top-k, single-pair and batch
//     scores through hydra-router over 2 shards × 2 replicas.
//
// Usage (from the repository root, after perfbench/run.sh has built the
// binaries):
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it measures the per-layer metrics, from timed calls into each layer's
// public functions and from the counters the binaries export. Both print
// a human-readable report and end with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// Any wrong answer, failed request or failed scrape marks the run
// incorrect and exits non-zero. workloads.json records each workload's
// settings and each metric's unit, direction and meaning.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed workloads.json
var specJSON []byte

// spec is workloads.json: the benchmark's settings and metric catalogue.
type spec struct {
	GoMaxProcs int            `json:"gomaxprocs"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// workloadSpec is one workload's settings. workloads.json also records
// its seed argument and unit of work for readers.
type workloadSpec struct {
	Name       string  `json:"name"`
	Why        string  `json:"why"`
	Loop       string  `json:"loop"`
	Clients    int     `json:"clients"`
	OfferedRPS float64 `json:"offered_rps"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Per-layer metrics only: the workloads that measure the metric and
	// the end-to-end metrics it should move there.
	Workloads []string `json:"workloads,omitempty"`
	Moves     []string `json:"moves,omitempty"`
	Note      string   `json:"note,omitempty"`
	// End-to-end metrics only: what the metric is on each workload.
	Meaning map[string]string `json:"meaning,omitempty"`
}

func loadSpec() (*spec, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &sp, nil
}

func (sp *spec) workload(name string) (workloadSpec, bool) {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// stat is one measured value and the number of samples behind it.
type stat struct {
	v float64
	n int
}

// report is what a workload run measured.
type report struct {
	e2e   map[string]stat
	layer map[string]stat
	// attempted counts units of work tried; failed counts failed or
	// refused requests plus wrong answers (the fail_ratio numerator).
	attempted, failed int
}

func newReport() *report {
	return &report{e2e: map[string]stat{}, layer: map[string]stat{}}
}

// env is the per-run context a workload draws on.
type env struct {
	ws      workloadSpec
	seed    int64
	window  time.Duration
	trace   bool
	binDir  string
	dir     string // scratch directory of this run, removed at exit
	workers int
	procs   *procSet
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: train-200, sweep-8k, interactive-routed, or all three in turn")
		seed     = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds  = flag.Int("seconds", 20, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
		binDir   = flag.String("bin", "", "directory holding the hydra-serve and hydra-router binaries")
		workDir  = flag.String("work", ".bench_build", "directory for this run's scratch files")
	)
	flag.Parse()
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = []string{"train-200", "sweep-8k", "interactive-routed"}
	}
	for _, w := range workloads {
		if err := run(w, *seed, *seconds, *trace, *binDir, *workDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

func run(workload string, seed int64, seconds, trace int, binDir, workDir string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	ws, ok := sp.workload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(sp.GoMaxProcs)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		ws: ws, seed: seed, window: time.Duration(seconds) * time.Second,
		trace: trace == 1, binDir: binDir, dir: dir, workers: sp.GoMaxProcs,
		procs: &procSet{gomaxprocs: sp.GoMaxProcs},
	}
	defer e.procs.stopAll()
	// A signal stops the children before the process goes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		e.procs.stopAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	fmt.Printf("workload %s: seed %d, %s loop, %d client(s), offered %.0f req/s, GOMAXPROCS %d, window %s, trace %d\n",
		ws.Name, seed, ws.Loop, ws.Clients, ws.OfferedRPS, sp.GoMaxProcs, e.window, trace)
	fmt.Printf("why: %s\n", ws.Why)

	var rep *report
	switch ws.Name {
	case "train-200":
		rep, err = runTrain(e)
	case "sweep-8k":
		rep, err = runSweep(e)
	case "interactive-routed":
		rep, err = runRouted(e)
	default:
		err = fmt.Errorf("workload %q is not implemented", ws.Name)
	}
	if stopErr := e.procs.stopAll(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	return emit(sp, ws, rep, e.trace)
}

// emit prints every metric by name with its unit and sample count —
// the end-to-end ones, and with tracing the per-layer ones too — then the
// result line, whose metrics are the end-to-end set untraced and the
// per-layer set traced. Per-layer metrics of another workload read 0.
func emit(sp *spec, ws workloadSpec, rep *report, traced bool) error {
	out := map[string]any{}
	list := func(kind string, catalogue []metricSpec, got map[string]stat, forJSON bool) error {
		for _, m := range catalogue {
			s, ok := got[m.Name]
			switch {
			case ok:
				fmt.Printf("%-5s %-32s %14.6g %-5s n=%d\n", kind, m.Name, s.v, m.Unit, s.n)
			case kind == "layer" && !slices.Contains(m.Workloads, ws.Name):
				fmt.Printf("%-5s %-32s %14s %-5s (measured on %s)\n", kind, m.Name, "0", m.Unit, strings.Join(m.Workloads, ", "))
			default:
				return fmt.Errorf("workload %s did not measure %s", ws.Name, m.Name)
			}
			if math.IsNaN(s.v) || math.IsInf(s.v, 0) {
				return fmt.Errorf("metric %s is not finite", m.Name)
			}
			if forJSON {
				out[m.Name] = map[string]any{"value": s.v, "unit": m.Unit}
			}
		}
		return nil
	}
	if err := list("e2e", sp.EndToEnd, rep.e2e, !traced); err != nil {
		return err
	}
	if traced {
		if err := list("layer", sp.PerLayer, rep.layer, true); err != nil {
			return err
		}
	}
	fmt.Printf("fail_ratio %.6g (%d failed or wrong of %d attempted)\n",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	correct := rep.failed == 0 && rep.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d of %d units of work failed or answered wrong", rep.failed, rep.attempted)
	}
	return nil
}

// layerTime is one layer's self time per unit of work.
type layerTime struct {
	name string
	ms   float64
}

// reconcile prints the per-layer self times next to the untraced
// end-to-end time per unit of work, the unexplained gap, the tracing
// overhead, and the largest layer of the system (the load generator's
// own bench.* wait counts in the sum but is not a candidate).
func reconcile(unit string, untracedMs, tracedMs float64, layers []layerTime) {
	sum := 0.0
	largest := layerTime{}
	for _, l := range layers {
		sum += l.ms
		if l.ms > largest.ms && !strings.HasPrefix(l.name, "bench.") {
			largest = l
		}
	}
	fmt.Printf("reconcile per %s: layers sum %.4g ms, untraced end-to-end %.4g ms, gap %.4g ms (%.1f%%), traced %.4g ms, tracing overhead %.4g ms (%.1f%%)\n",
		unit, sum, untracedMs, untracedMs-sum, 100*(untracedMs-sum)/untracedMs,
		tracedMs, tracedMs-untracedMs, 100*(tracedMs-untracedMs)/untracedMs)
	sorted := append([]layerTime(nil), layers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ms > sorted[j].ms })
	for _, l := range sorted {
		fmt.Printf("  %-30s %10.4g ms  %5.1f%%\n", l.name, l.ms, 100*l.ms/sum)
	}
	fmt.Printf("largest layer: %s (%.1f%% of the layer sum)\n", largest.name, 100*largest.ms/sum)
}

// percentile is the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// tail is the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it, named "<prefix>_pNN_ms".
func tail(prefix string, xs []float64) (string, float64) {
	q := 0.90
	for _, c := range []float64{0.99, 0.95} {
		if len(xs)-int(math.Ceil(c*float64(len(xs)))) >= 10 {
			q = c
			break
		}
	}
	return fmt.Sprintf("%s_p%.0f_ms", prefix, 100*q), percentile(append([]float64(nil), xs...), q)
}

// show prints one of a workload's own metrics with its unit and sample
// count.
func show(name string, v float64, unit string, n int) {
	fmt.Printf("%-5s %-32s %14.6g %-5s n=%d\n", "run", name, v, unit, n)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runtimeSample reads the process's cumulative GC CPU, total CPU and
// allocated bytes.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2)}
}

// gcRatio is the share of CPU time spent in GC between two samples.
func gcRatio(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func fileMB(path string) (float64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(info.Size()) / (1 << 20), nil
}
