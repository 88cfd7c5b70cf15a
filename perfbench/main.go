// Command perfbench is pnstm's end-to-end benchmark. One invocation runs one
// workload in this single process: the server workloads start server.New on
// a loopback port and drive it through client.Connect, the engine workload
// drives the pnstm runtime directly. Every run does a fixed amount of work
// (a per-workload rate times --seconds), checks the program's outputs
// against values it computes apart from the program, and prints its result
// as one JSON object on the last line of standard output.
//
//	perfbench --workload kv-read --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run, which are
// CPU time and memory (see endToEnd). --trace 1 runs the workload twice
// with the same seed, untraced and then traced, and prints the per-layer
// metrics: the callers' wall-clock throughput and latency and counters
// read from the layers' public Stats APIs around the untraced timed phase,
// timings from spans the traced run records around the benchmark's own
// calls into each layer, and the tracing overhead as the change in CPU
// time per operation between the two runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark input family.
type workload struct {
	name string
	// rate is the number of operations one second of --seconds buys. The
	// work is fixed by it, not by a clock, so a faster build does the
	// same work in less time (the reader-set leak grows with reads done,
	// so a fixed-time run would make faster code pay more).
	rate int
	run  func(rc *runCfg) (*outcome, error)
}

var workloads = []workload{
	{"kv-read", 25000, runKV},
	{"xfer-durable", 6000, runXfer},
	{"nested-tree", 6000, runTree},
}

// runCfg is one pass of a workload.
type runCfg struct {
	seed      int64
	ops       int     // operations the timed phase attempts
	dir       string  // scratch directory for data directories
	setupReps int     // set-ups made; all but the last are torn down
	tr        *tracer // nil: untraced pass
	reference bool    // run the workload's reference configuration (see README)
}

// outcome is what one pass measured.
type outcome struct {
	attempted, failed int64
	violations        []string  // correctness failures, empty when correct
	setup             []float64 // CPU seconds, one per set-up
	elapsed           float64   // seconds in the timed phase
	cpu               float64   // CPU seconds in the timed phase
	lat               []int64   // latency in nanoseconds, one per operation
	done              []int64   // completion, nanoseconds into the timed phase, one per operation
	recovery          []float64 // CPU seconds, one per reopen
	recoveryWall      []float64 // seconds, one per reopen
	layers            map[string]float64

	mu sync.Mutex // guards violations
}

// violate records a correctness failure; callers may be concurrent.
func (o *outcome) violate(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Per-layer metric units; every name here is printed by a traced run,
// zero where the workload does not reach the layer (README lists which).
var layerUnits = map[string]string{
	"client.throughput_ops_s":       "ops/s",
	"client.latency_p50_us":         "us",
	"client.latency_p99_us":         "us",
	"wal.recovery_wall_s":           "s",
	"core.tx_per_op":                "count",
	"core.commit_ratio":             "ratio",
	"core.aborts_per_op":            "count",
	"core.conflicts_per_op":         "count",
	"core.spin_saves_per_op":        "count",
	"core.escalations_per_op":       "count",
	"core.dispatches_per_op":        "count",
	"core.slot_yields_per_op":       "count",
	"core.help_publishes_per_op":    "count",
	"core.crises":                   "count",
	"core.root_us_p50":              "us",
	"core.forkjoin_overhead_us_p50": "us",
	"core.leaf_atomic_us_p50":       "us",
	"core.leaf_body_us_p50":         "us",
	"epoch.cycles_per_op":           "count",
	"server.batch_mean":             "count",
	"server.batch_max":              "count",
	"server.latency_p50_us":         "us",
	"server.latency_p99_us":         "us",
	"codec.req_encode_ns":           "ns",
	"codec.req_parse_ns":            "ns",
	"codec.resp_encode_ns":          "ns",
	"codec.resp_parse_ns":           "ns",
	"codec.req_bytes":               "B",
	"codec.resp_bytes":              "B",
	"stmlib.map_get_us":             "us",
	"stmlib.map_put_us":             "us",
	"wal.appends_per_op":            "count",
	"wal.bytes_per_op":              "B",
	"wal.replay_records_per_s":      "1/s",
	"xshard.cross_p50_us":           "us",
	"xshard.local_p50_us":           "us",
	"go.alloc_bytes_per_op":         "B",
	"go.allocs_per_op":              "count",
	"go.gc_per_kop":                 "count",
	"trace.overhead_pct":            "%",
	"trace.spans":                   "count",
}

// setupReps is how many times each run sets its workload up; setup_s is
// their median, which keeps one slow set-up from moving the figure.
const setupReps = 9

// deadline bounds a whole run: a hang is reported as an error, not left to
// whoever waits for the process.
const deadline = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: kv-read, xfer-durable or nested-tree")
	seed := fs.Int64("seed", 1, "seed for the generated inputs")
	seconds := fs.Int("seconds", 10, "run length in seconds of work at the workload's reference rate")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for data directories and the span file")
	reference := fs.Bool("reference", false, "run the reference configuration: SharedReads off (kv-read), one shard (xfer-durable), the Serial engine on one goroutine (nested-tree)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (kv-read|xfer-durable|nested-tree), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())

	scratch := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	rc := runCfg{seed: *seed, ops: w.rate * *seconds, dir: scratch, setupReps: setupReps, reference: *reference}
	res, err := measure(w, rc, *trace == 1, filepath.Join(*dir, "spans-"+w.name+".jsonl"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, w.name, *seed, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0 // the result line says whether the checks held
}

// measure runs the workload once untraced and, for per-layer metrics, once
// more traced, and assembles the printed result.
func measure(w *workload, rc runCfg, traced bool, spanPath string) (*result, error) {
	plain, err := w.run(&rc)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(plain.violations) == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   map[string]metric{},
	}
	for _, v := range plain.violations {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, v)
	}
	if !traced {
		res.Metrics = endToEnd(plain)
		return res, nil
	}

	trc := rc
	trc.setupReps = 1
	trc.tr = newTracer(rc.ops)
	tr, err := w.run(&trc)
	if err != nil {
		return nil, err
	}
	for _, v := range tr.violations {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s (traced): check failed: %s\n", w.name, v)
	}
	for k, u := range layerUnits {
		res.Metrics[k] = metric{Value: 0, Unit: u}
	}
	set := func(src map[string]float64) {
		for k, v := range src {
			if u, ok := layerUnits[k]; ok {
				res.Metrics[k] = metric{Value: v, Unit: u}
			}
		}
	}
	set(plain.layers) // counters: read around the untraced timed phase
	set(clientLayers(plain))
	set(trc.tr.layers())
	base := cpuPerOp(plain)
	set(map[string]float64{
		"trace.overhead_pct": (cpuPerOp(tr) - base) / base * 100,
		"trace.spans":        float64(trc.tr.recorded()),
	})
	if err := trc.tr.write(spanPath); err != nil {
		return nil, err
	}
	return res, nil
}

// cpuPerOp is the CPU time in microseconds the timed phase spent per
// operation.
func cpuPerOp(o *outcome) float64 { return o.cpu / float64(o.attempted) * 1e6 }

// The end-to-end figures are CPU time: the time the process (server,
// client and engine alike) spends working, user and system. On the shared
// box the benchmark was written on, wall-clock throughput of identical code
// moved threefold between runs minutes apart while its CPU time per
// operation moved by under a third (README, "End-to-end metrics"). Wall
// time, which also counts waiting, is reported per layer.
func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"cpu_us_per_op":  {cpuPerOp(o), "us"},
		"setup_s":        {median(o.setup), "s"},
		"rss_peak_mb":    {peakRSSMB(), "MB"},
		"recovery_cpu_s": {median(o.recovery), "s"},
	}
}

// windows is how many equal spans of time the timed phase is cut into for
// the wall-clock throughput and latency figures, which are medians over
// them: a stall of the shared disk or CPU in one span moves the median
// little. Twenty spans of a ten-second run still hold over a thousand
// operations each on the slowest workload, so each span's 99th percentile
// has ten beyond it.
const windows = 20

// clientLayers derives the wall-clock figures the benchmark's callers saw.
func clientLayers(o *outcome) map[string]float64 {
	span := o.elapsed / windows
	lats := make([][]int64, windows)
	for i, d := range o.done {
		w := min(int(float64(d)/1e9/span), windows-1)
		lats[w] = append(lats[w], o.lat[i])
	}
	var rate, p50, p99 []float64
	for _, l := range lats {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		rate = append(rate, float64(len(l))/span)
		p50 = append(p50, quantile(l, 0.50)/1e3)
		p99 = append(p99, quantile(l, 0.99)/1e3)
	}
	return map[string]float64{
		"client.throughput_ops_s": median(rate),
		"client.latency_p50_us":   median(p50),
		"client.latency_p99_us":   median(p99),
		"wal.recovery_wall_s":     median(o.recoveryWall),
	}
}

// report prints a readable summary and then the JSON result as the last
// line.
func report(out io.Writer, name string, seed int64, res *result) error {
	fmt.Fprintf(out, "workload %s seed %d attempted %d failed %d correct %v\n",
		name, seed, res.Attempted, res.Failed, res.Correct)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(out, "  %-32s %s %s\n", k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err) // a NaN or Inf metric
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// stopwatch measures an interval in wall-clock and CPU time.
type stopwatch struct {
	t0   time.Time
	cpu0 float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// wall is the wall-clock seconds since the stopwatch started.
func (s stopwatch) wall() float64 { return time.Since(s.t0).Seconds() }

// cpu is the CPU seconds the process used since the stopwatch started.
func (s stopwatch) cpu() float64 { return cpuSeconds() - s.cpu0 }

// cpuSeconds is the CPU time, user and system, the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memDelta turns two runtime.MemStats snapshots around a timed phase into
// the Go-runtime per-layer metrics.
func memDelta(before, after *runtime.MemStats, ops int64) map[string]float64 {
	n := float64(ops)
	return map[string]float64{
		"go.alloc_bytes_per_op": float64(after.TotalAlloc-before.TotalAlloc) / n,
		"go.allocs_per_op":      float64(after.Mallocs-before.Mallocs) / n,
		"go.gc_per_kop":         float64(after.NumGC-before.NumGC) / n * 1000,
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// freshDir empties and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
