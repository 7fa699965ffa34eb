package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The -bench-json mode records the TC serve-path microbenchmarks (the
// same shapes as BenchmarkTC* in bench_test.go) into a JSON file, so
// the repository keeps a perf trajectory across PRs. The file holds two
// sections: "baseline" (written with -bench-baseline, kept untouched by
// later runs) and "current" (rewritten on every run).

type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// GoMaxProcs is the scheduler width the row was measured under.
	// Parallel rows (EngineFleet shards>1, TreePar) are only
	// interpretable next to it: at 1 the intra-tree rows gate to the
	// sequential path by design, so a flat delta there is the expected
	// result, not a missing speedup. -bench-cpus sweeps it.
	GoMaxProcs int `json:"gomaxprocs"`
}

// toResult converts a testing.Benchmark result to a JSON row, stamping
// the GOMAXPROCS setting the measurement ran under.
func toResult(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
}

type benchFile struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// GoMaxProcs records the scheduler width of the recording host:
	// the EngineFleet shards>1 rows only show aggregate speedup over
	// shards=1 when it is > 1 (on a 1-core host they tie by physics).
	GoMaxProcs int           `json:"gomaxprocs"`
	UpdatedAt  string        `json:"updated_at"`
	Baseline   []benchResult `json:"baseline,omitempty"`
	Current    []benchResult `json:"current"`
}

// runEngineBench measures one cell of the sharded-engine fleet grid:
// ns/op is per request served anywhere in the fleet, so aggregate
// ops/s = 1e9/ns_per_op and the shards=k row is directly comparable
// to shards=1 (the single-instance serve path behind one worker). The
// body is experiments.EngineFleetBench, shared with the repo-root
// BenchmarkEngineFleet so the two measurements cannot drift apart.
func runEngineBench(c experiments.EngineBenchCase) benchResult {
	return toResult(c.Name, testing.Benchmark(func(b *testing.B) { experiments.EngineFleetBench(b, c) }))
}

// runChurnBench measures one cell of the dynamic-topology churn grid
// (body shared with the repo-root BenchmarkTCChurn / BenchmarkEngineChurn):
// ns/op is per operation, mutations included.
func runChurnBench(c experiments.ChurnBenchCase) benchResult {
	body := experiments.ChurnBench
	if c.Shards > 0 {
		body = experiments.EngineChurnBench
	}
	return toResult(c.Name, testing.Benchmark(func(b *testing.B) { body(b, c) }))
}

// runBurstBench measures one cell of the batched-serve burst grid
// (body shared with the repo-root BenchmarkTCBurst / BenchmarkTCBurstSeq).
func runBurstBench(c experiments.BurstBenchCase) benchResult {
	return toResult(c.Name, testing.Benchmark(func(b *testing.B) { experiments.BurstBench(b, c) }))
}

// runTreeParBench measures one cell of the intra-tree parallelism grid
// (body shared with the repo-root BenchmarkTreePar / BenchmarkTreeParSeq):
// ns/op is per request served through one partitioned (or, for the
// TreeParSeq control, plain sequential) instance. The parallel rows
// gate on GOMAXPROCS, so sweep them with -bench-cpus to see both the
// one-core pass-through and the multi-core wave dispatch.
func runTreeParBench(c experiments.TreeParBenchCase) benchResult {
	return toResult(c.Name, testing.Benchmark(func(b *testing.B) { experiments.TreeParBench(b, c) }))
}

// runDaemonBench measures one cell of the treecached loopback grid
// (body shared with the repo-root BenchmarkDaemonLoopback): ns/op is
// per request driven by real wire clients through an in-process
// daemon over loopback TCP, served and acknowledged.
func runDaemonBench(c experiments.DaemonBenchCase) benchResult {
	return toResult(c.Name, testing.Benchmark(func(b *testing.B) { experiments.DaemonLoopbackBench(b, c) }))
}

// runCaptureBench measures one cell of the supervision-capture grid
// (body shared with internal/snapshot's BenchmarkSnapshotCapture, whose
// /reference rows pair each cell with the test-only from-scratch
// export): ns/op is one capture.
func runCaptureBench(c experiments.CaptureBenchCase) benchResult {
	return toResult(c.Name, testing.Benchmark(func(b *testing.B) { experiments.CaptureBench(b, c, snapshot.Capture) }))
}

func runBenchCase(c experiments.BenchCase) benchResult {
	t := c.Build()
	rng := rand.New(rand.NewSource(1))
	input := trace.RandomMixed(rng, t, 1<<16)
	return toResult(c.Name, testing.Benchmark(func(b *testing.B) {
		tc := core.New(t, core.Config{Alpha: 8, Capacity: c.Capacity})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tc.Serve(input[i&(1<<16-1)])
		}
	}))
}

// emitBenchJSON runs the TC microbenchmarks and merges the results into
// the JSON file at path. With asBaseline the results are stored under
// "baseline" (preserving any existing "current"); otherwise under
// "current" (preserving any existing "baseline").
//
// cpus is the -bench-cpus sweep: the GOMAXPROCS settings to measure the
// intra-tree parallelism (TreePar) grid under. Every other grid runs at
// the ambient setting. nil or empty means ambient only; with more than
// one value the swept rows carry a /cpus=N name suffix so the JSON
// keeps every point.
func emitBenchJSON(path string, asBaseline bool, cpus []int) error {
	var file benchFile
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("bench-json: cannot parse existing %s: %v", path, err)
		}
	case errors.Is(err, os.ErrNotExist):
		// Fresh file.
	default:
		// Anything else (permissions, I/O): bail rather than silently
		// rewriting the file without its recorded sections.
		return fmt.Errorf("bench-json: cannot read existing %s: %v", path, err)
	}
	cases := experiments.TCBenchCases()
	burstCases := experiments.BurstBenchCases()
	churnCases := append(experiments.ChurnBenchCases(), experiments.EngineChurnCases()...)
	engineCases := append(experiments.EngineBenchCases(), experiments.EngineBurstCases()...)
	daemonCases := experiments.DaemonBenchCases()
	treeParCases := experiments.TreeParBenchCases()
	captureCases := experiments.CaptureBenchCases()
	if len(cpus) == 0 {
		cpus = []int{runtime.GOMAXPROCS(0)}
	}
	results := make([]benchResult, 0, len(cases)+len(burstCases)+len(churnCases)+len(engineCases)+len(daemonCases)+len(captureCases)+len(treeParCases)*len(cpus))
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.Name)
		results = append(results, runBenchCase(c))
	}
	for _, c := range burstCases {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.Name)
		results = append(results, runBurstBench(c))
	}
	for _, c := range churnCases {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.Name)
		results = append(results, runChurnBench(c))
	}
	for _, c := range engineCases {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.Name)
		results = append(results, runEngineBench(c))
	}
	for _, c := range daemonCases {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.Name)
		results = append(results, runDaemonBench(c))
	}
	for _, c := range captureCases {
		fmt.Fprintf(os.Stderr, "bench %s...\n", c.Name)
		results = append(results, runCaptureBench(c))
	}
	ambient := runtime.GOMAXPROCS(0)
	for _, procs := range cpus {
		if procs <= 0 {
			procs = ambient
		}
		runtime.GOMAXPROCS(procs)
		for _, c := range treeParCases {
			name := c.Name
			if len(cpus) > 1 {
				name = fmt.Sprintf("%s/cpus=%d", c.Name, procs)
			}
			fmt.Fprintf(os.Stderr, "bench %s...\n", name)
			r := runTreeParBench(c)
			r.Name = name
			results = append(results, r)
		}
	}
	runtime.GOMAXPROCS(ambient)
	file.GeneratedBy = "cmd/experiments -bench-json"
	file.GoVersion = runtime.Version()
	file.GOOS = runtime.GOOS
	file.GOARCH = runtime.GOARCH
	file.GoMaxProcs = runtime.GOMAXPROCS(0)
	file.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	if asBaseline {
		file.Baseline = results
	} else {
		file.Current = results
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// compareBenchJSON prints a per-benchmark before/after delta table
// between the "current" sections of two bench JSON files (falling back
// to "baseline" when a file has no "current" section), so perf PRs can
// quote speedups mechanically:
//
//	experiments -bench-compare old.json new.json
//
// tolerance is the regression gate in percent: benchmarks whose ns/op
// grew by more than it are flagged and make the compare return an
// error (non-zero exit), so CI and scripts only fail on regressions
// beyond the shared-container drift (±30% on this hardware class, see
// ROADMAP), not on noise.
func compareBenchJSON(oldPath, newPath string, tolerance float64) error {
	load := func(path string) (map[string]benchResult, []string, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("bench-compare: %v", err)
		}
		var file benchFile
		if err := json.Unmarshal(raw, &file); err != nil {
			return nil, nil, fmt.Errorf("bench-compare: cannot parse %s: %v", path, err)
		}
		section := file.Current
		if len(section) == 0 {
			section = file.Baseline
		}
		if len(section) == 0 {
			return nil, nil, fmt.Errorf("bench-compare: %s has neither a current nor a baseline section", path)
		}
		m := make(map[string]benchResult, len(section))
		order := make([]string, 0, len(section))
		for _, r := range section {
			m[r.Name] = r
			order = append(order, r.Name)
		}
		return m, order, nil
	}
	oldM, oldOrder, err := load(oldPath)
	if err != nil {
		return err
	}
	newM, newOrder, err := load(newPath)
	if err != nil {
		return err
	}
	var regressions []string
	fmt.Printf("%-28s %12s %12s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "speedup")
	for _, name := range newOrder {
		nw := newM[name]
		old, ok := oldM[name]
		if !ok {
			fmt.Printf("%-28s %12s %12.2f %9s %9s\n", name, "-", nw.NsPerOp, "new", "-")
			continue
		}
		delta := (nw.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		mark := ""
		if tolerance > 0 && delta > tolerance {
			mark = "  REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s %+.1f%%", name, delta))
		}
		fmt.Printf("%-28s %12.2f %12.2f %+8.1f%% %8.2fx%s\n",
			name, old.NsPerOp, nw.NsPerOp, delta, old.NsPerOp/nw.NsPerOp, mark)
	}
	for _, name := range oldOrder {
		if _, ok := newM[name]; !ok {
			fmt.Printf("%-28s %12.2f %12s %9s %9s\n", name, oldM[name].NsPerOp, "-", "gone", "-")
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench-compare: %d benchmark(s) regressed beyond the ±%.0f%% tolerance: %s",
			len(regressions), tolerance, strings.Join(regressions, ", "))
	}
	return nil
}
