// Command perfbench is the treecached benchmark. It drives the built
// cmd/treecached binary over loopback with one connection per tenant,
// checks every result against a sequential core.MutableTC replay, and
// prints the end-to-end metrics; with --trace 1 it instead runs the
// daemon in process with timing wrappers around each layer and replays
// the same frames up a ladder of layers to print the per-layer metrics.
// Workloads, rates and the metric table live in spec.json; BENCHMARK.json
// lists bulk and skew, and ctrl and durable run by name the same way.
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when a correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	daemon   string // built treecached binary (end-to-end runs)
	work     string // directory for state dirs and span files
	// corrupt, when set, alters one frame the oracle sees (self-test of
	// the parity gate).
	corrupt bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// report lines are printed above the JSON line.
	report []string
	fails  []string
}

// gate records a failed correctness check.
func (r *result) gate(ok bool, format string, args ...any) {
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name from spec.json")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "run length the phases are sized to, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: traced in-process run printing per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "built treecached binary")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for daemon state and span files")
	flag.Parse()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range res.report {
		fmt.Println(l)
	}
	for _, f := range res.fails {
		fmt.Fprintln(os.Stderr, "perfbench: gate failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and fills in every metric the spec
// names for its mode.
func run(o options) (*result, error) {
	sp, err := loadSpec()
	if err != nil {
		return nil, err
	}
	w, err := sp.workload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	vals := map[string]float64{}
	if o.trace == 1 {
		err = runTraced(o, sp, w, res, vals)
	} else {
		if o.daemon == "" {
			return nil, fmt.Errorf("--daemon is required for an end-to-end run")
		}
		err = runE2E(o, sp, w, res, vals)
	}
	if err != nil {
		return nil, err
	}
	for _, m := range sp.metrics(o.trace == 1) {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		res.note("%-28s %14.6g %s", m.Name, v, m.Unit)
	}
	res.Correct = len(res.fails) == 0
	return res, nil
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }
