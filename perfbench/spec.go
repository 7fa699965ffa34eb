package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// specJSON is the benchmark's definition: workloads with their daemon
// flags, traffic and fixed offered rates, and every metric with its unit,
// direction, layer and the end-to-end metric it should move.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	Tenants   int            `json:"tenants"`
	Daemon    daemonDefaults `json:"daemon_defaults"`
	Workloads []workload     `json:"workloads"`
	Metrics   []metricSpec   `json:"metrics"`
}

// daemonDefaults are the values of treecached's own defaults for the
// flags both modes pass: the end-to-end run on the command line
// (daemonArgs), the traced run in its server.Config. One source keeps the
// two measuring the same program.
type daemonDefaults struct {
	Queue           int     `json:"queue"`
	CheckpointEvery int     `json:"checkpoint_every"`
	FsyncIntervalMs float64 `json:"fsync_interval_ms"`
}

func (d daemonDefaults) fsyncInterval() time.Duration {
	return time.Duration(d.FsyncIntervalMs * float64(time.Millisecond))
}

// workload is one spec.json workload; its "why" documents the choice.
type workload struct {
	Name string `json:"name"`
	// Daemon flags beyond the defaults.
	Tree     string `json:"tree"`
	Nodes    int    `json:"nodes"`
	Capacity int    `json:"capacity"`
	Alpha    int64  `json:"alpha"`
	WAL      bool   `json:"wal"`
	// Traffic: "random_mixed" (uniform nodes, random sign) or "bursts"
	// (trace.Bursts runs, a fresh popularity order every BlockReqs). FrameOps is the ops per frame, serve and
	// topology alike; TopoEvery > 0 sends one topology frame of FrameOps
	// net-zero announce/withdraw mutations after every TopoEvery serve
	// frames.
	Traffic   string  `json:"traffic"`
	FrameOps  int     `json:"frame_ops"`
	RunLen    int     `json:"run_len,omitempty"`
	BlockReqs int     `json:"block_reqs,omitempty"` // bursts: requests per popularity order
	ZipfS     float64 `json:"zipf_s,omitempty"`
	NegFrac   float64 `json:"neg_frac,omitempty"`
	TopoEvery int     `json:"topo_every,omitempty"`
	// Load: warm-up frames per tenant, closed-loop ops per second of
	// --seconds (a fixed op count, not a duration), the share of
	// --seconds each open-loop phase lasts, and the fixed offered rates.
	WarmupFrames  int     `json:"warmup_frames"`
	ClosedOpsPerS float64 `json:"closed_ops_per_s"`
	OpenFrac      float64 `json:"open_frac"`
	LightOpsS     float64 `json:"light_ops_s"`
	HeavyOpsS     float64 `json:"heavy_ops_s"`
	// Restarts is how many times a run restarts the daemon; the median
	// is reported.
	Restarts int `json:"restarts"`
	// WALFrames is how many frames per tenant the traced run's WAL rung
	// appends and waits for, and, on a workload without the WAL, how many
	// the replay rung logs before its crash.
	WALFrames int `json:"wal_frames"`
}

// metricSpec is the part of a metric's spec.json entry the benchmark
// reads; the entry also documents the metric's layer, the end-to-end
// metrics it should move and the workloads it should move or leave flat
// on.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Traced bool   `json:"traced"`
}

func loadSpec() (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *spec) workload(name string) (workload, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metrics returns the metrics one run reports: the per-layer ones in a
// traced run, the end-to-end ones otherwise.
func (s *spec) metrics(traced bool) []metricSpec {
	var out []metricSpec
	for _, m := range s.Metrics {
		if m.Traced == traced {
			out = append(out, m)
		}
	}
	return out
}

// daemonArgs are the treecached flags for w; every flag not named here
// keeps its default.
func (w workload) daemonArgs(d daemonDefaults, tenants int, stateDir string) []string {
	args := []string{
		"-queue", strconv.Itoa(d.Queue),
		"-checkpoint-every", strconv.Itoa(d.CheckpointEvery),
		"-tree", w.Tree,
		"-nodes", strconv.Itoa(w.Nodes),
		"-capacity", strconv.Itoa(w.Capacity),
		"-alpha", strconv.FormatInt(w.Alpha, 10),
		"-tenants", strconv.Itoa(tenants),
		"-state-dir", stateDir,
	}
	if w.WAL {
		args = append(args, "-wal", "-fsync-interval", d.fsyncInterval().String())
	}
	return args
}
