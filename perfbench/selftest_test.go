package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// self-test cross-checks against spec.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "treecached")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/treecached")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build treecached: %v\n%s", err, out)
	}
	return bin
}

// TestSpecMatchesBenchmarkJSON checks that every workload BENCHMARK.json
// lists is defined in spec.json, and that it lists exactly the metrics
// spec.json defines, with the same units and directions.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, err := sp.workload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, traced := range []bool{false, true} {
		listed := bj.EndToEnd
		if traced {
			listed = bj.PerLayer
		}
		ms := sp.metrics(traced)
		if len(listed) != len(ms) {
			t.Errorf("traced=%v: BENCHMARK.json lists %d metrics, spec.json %d", traced, len(listed), len(ms))
			continue
		}
		for i, m := range ms {
			if l := listed[i]; l.Name != m.Name || l.Unit != m.Unit || l.Better != m.Better {
				t.Errorf("metric %d: BENCHMARK.json %+v, spec.json %s %s %s", i, l, m.Name, m.Unit, m.Better)
			}
		}
	}
}

// TestSelfTest runs every workload at a tiny scale, end to end against a
// freshly built treecached and traced in process: every named metric
// must be printed and every correctness gate must pass.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, trace := range []int{0, 1} {
			res, err := run(options{workload: w.Name, seed: 7, seconds: 1, trace: trace, daemon: bin, work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d gates %v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, res.fails)
			}
			for _, m := range sp.metrics(trace == 1) {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%d: metric %s not printed", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestParityGateCatchesAlteredFrame feeds the oracle one altered frame:
// the ledger parity gates must fail, in both modes.
func TestParityGateCatchesAlteredFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := buildDaemon(t)
	for _, trace := range []int{0, 1} {
		res, err := run(options{workload: "ctrl", seed: 7, seconds: 1, trace: trace, daemon: bin, work: t.TempDir(), corrupt: true})
		if err != nil {
			t.Fatalf("trace=%d: %v", trace, err)
		}
		if res.Correct {
			t.Fatalf("trace=%d: parity gate passed with an altered oracle frame", trace)
		}
		if !strings.Contains(strings.Join(res.fails, "\n"), "sequential replay") {
			t.Errorf("trace=%d: gates failed, but not on ledger parity: %v", trace, res.fails)
		}
	}
}
