package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// runE2E is the untraced run against the built daemon: setup, warm-up,
// rounds of closed loop and light and heavy open loop, restarts, check.
func runE2E(o options, sp *spec, w workload, res *result, vals map[string]float64) error {
	p, err := newPlan(w, sp.Tenants, o.seed, o.seconds)
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp(o.work, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Setup: launch on an empty state dir setupLaunches times; keep the
	// last.
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	var setups []float64
	var args []string
	for i := 0; i < setupLaunches; i++ {
		if d != nil {
			d.kill()
		}
		args = w.daemonArgs(sp.Daemon, sp.Tenants, filepath.Join(root, fmt.Sprint(i)))
		var took time.Duration
		if d, took, err = launch(o.daemon, args); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	vals["setup_s"] = median(setups)

	ss := newStreams(d.addr, p, o.seed)
	defer closeStreams(ss)
	stc := client.New(client.Config{Addr: d.addr})
	defer stc.Close()
	if err := closedLoop(ss, p.warmEnd, nil); err != nil {
		return err
	}
	if _, err := awaitAllServed(stc, ss); err != nil {
		return err
	}

	// Rounds. checkpoints[i] is every tenant's ledger after round i's
	// closed-loop segment, checked against the replay below. Only the
	// rounds in which the host stole the least CPU time count (see
	// calmRounds), so a burst of host noise spoils a round, not the run:
	// max_ops_s is the median of their closed-loop rates, and each
	// open-loop quantile is taken once over all their frames, so a p99
	// rests on thousands of samples rather than one round's few hundred.
	var rates, stolen []float64
	var checkpoints [][]wire.StatsReply
	var lats [numSteps][][]float64 // per open-loop step and round: frame latencies
	var lags []float64
	frames := 0
	for r, rd := range p.rounds {
		if w.WAL && r == len(p.rounds)-walTailRounds {
			// Checkpoint before the last rounds, so each SIGKILL restart
			// restores the checkpoint and replays the same WAL tail of
			// their frames rather than the whole run.
			if err := stc.Snapshot(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		cpu0 := readCPU()
		from := ss[0].sent
		start := time.Now()
		if err := closedLoop(ss, rd[stClosed], nil); err != nil {
			return err
		}
		st, err := awaitAllServed(stc, ss)
		if err != nil {
			return err
		}
		rates = append(rates, float64(p.opsIn(from, rd[stClosed]))/time.Since(start).Seconds())
		checkpoints = append(checkpoints, st)
		for _, step := range []int{stLight, stHeavy} {
			per, err := openLoop(ss, rd[step], w.FrameOps, w.rate(step), nil)
			if err != nil {
				return err
			}
			if _, err := awaitAllServed(stc, ss); err != nil {
				return err
			}
			var lat []float64
			for _, samples := range per {
				for _, s := range samples {
					lat = append(lat, float64(s.lat))
					lags = append(lags, float64(s.lag))
				}
			}
			frames += len(lat)
			lats[step] = append(lats[step], lat)
		}
		stolen = append(stolen, readCPU().stolenSince(cpu0))
	}
	calm := calmRounds(stolen)
	vals["max_ops_s"] = median(pick(rates, calm))
	res.note("host steal by round: %.3f; rounds used: %v", stolen, calm)
	res.note("closed loop ops/s by round: %.0f", rates)
	for _, step := range []int{stLight, stHeavy} {
		name := stepNames[step]
		var lat []float64
		for _, r := range calm {
			lat = append(lat, lats[step][r]...)
		}
		vals[name+".ack_p50_us"] = us(quantile(lat, 0.5))
		vals[name+".ack_p99_us"] = us(quantile(lat, 0.99))
		res.note("%s: %.0f ops/s offered, %d frames in the rounds used", name, w.rate(step), len(lat))
	}
	res.note("open loop: %d frames, generator lag p99 %.1f us", frames, us(quantile(lags, 0.99)))

	final, err := awaitAllServed(stc, ss)
	if err != nil {
		return err
	}
	if vals["daemon_rss_mb"], err = d.peakRSSMB(); err != nil {
		return err
	}

	// Restarts: SIGTERM drains and checkpoints; with the WAL, SIGKILL
	// leaves recovery to replay. Every restart is checked.
	sig := syscall.SIGTERM
	if w.WAL {
		sig = syscall.SIGKILL
	}
	var restarts, restartSteal []float64
	var afters [][]wire.StatsReply
	for i := 0; i < max(w.Restarts, 1); i++ {
		cpu0 := readCPU()
		t0 := time.Now()
		err := d.stop(sig)
		d = nil
		if err != nil {
			return err
		}
		if d, _, err = launch(o.daemon, args); err != nil {
			return err
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		restartSteal = append(restartSteal, readCPU().stolenSince(cpu0))
		// Readiness comes before the daemon installs its signal
		// handler, right after printing its start-up line. Wait for the
		// whole line and then a grace period, so the next stop signal
		// meets the handler instead of killing the daemon undrained.
		if err := d.awaitOutput(startupLine); err != nil {
			return err
		}
		time.Sleep(signalGrace)
		after, err := resumeStats(d.addr, len(ss))
		if err != nil {
			return err
		}
		afters = append(afters, after)
	}
	calm = calmRounds(restartSteal)
	vals["restart_s"] = median(pick(restarts, calm))
	res.note("setups s %.4f, restarts s %.4f, host steal %.3f; restarts used: %v", setups, restarts, restartSteal, calm)
	err = d.stop(syscall.SIGTERM)
	d = nil
	if err != nil {
		return err
	}

	// Check: the daemon's ledgers after every closed-loop segment, at
	// the end, and after every restart against the sequential replay.
	applied := make([][]frame, len(ss))
	marks := make([][]int, len(ss))
	for t, s := range ss {
		applied[t] = s.applied()
		for _, rd := range p.rounds {
			marks[t] = append(marks[t], s.appliedBefore(rd[stClosed]))
		}
		marks[t] = append(marks[t], len(applied[t]))
		res.Attempted += s.sent
		res.Failed += s.failed
	}
	want := oracle(p, oracleInput(applied, o.corrupt), marks).ledgers
	var ops int
	var cost int64
	for t, s := range ss {
		for r, st := range checkpoints {
			gateLedger(res, fmt.Sprintf("after closed-loop segment %d", r+1), t, ledgerOf(st[t]), want[t][r])
		}
		end := want[t][len(want[t])-1]
		gateLedger(res, "before restart", t, ledgerOf(final[t]), end)
		for i, after := range afters {
			gateLedger(res, fmt.Sprintf("after restart %d", i+1), t, ledgerOf(after[t]), end)
			res.gate(after[t].LastSeq == uint64(s.acked), "tenant %d: LastSeq %d after restart %d, %d frames acked",
				t, after[t].LastSeq, i+1, s.acked)
		}
		for _, f := range applied[t] {
			ops += f.ops()
		}
		cost += final[t].Serve + final[t].Move
	}
	vals["cost_per_op"] = float64(cost) / float64(ops)
	return nil
}

// startupLine matches the daemon's complete start-up line, printed just
// before it installs its SIGTERM handler; signalGrace covers the rest.
var startupLine = regexp.MustCompile(`treecached: serving [^\n]*\n`)

const signalGrace = 20 * time.Millisecond

// walTailRounds is how many rounds' frames the WAL holds when a run with
// the WAL restarts: enough replay (about 0.8 s on durable) that the
// daemon's fixed start-up costs and their noise do not dominate it.
const walTailRounds = 2

// setupLaunches is how many times a run launches the daemon on an empty
// state dir; setup_s is the median.
const setupLaunches = 7

// cpuTimes are the cumulative CPU times of /proc/stat's first line, in
// clock ticks; zero where the file cannot be read.
type cpuTimes struct{ steal, total uint64 }

func readCPU() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var c cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i == 7 { // user nice system idle iowait irq softirq steal
			c.steal = v
		}
		if i < 8 {
			c.total += v
		}
	}
	return c
}

// stolenSince is the share of CPU time the hypervisor gave to other
// guests between c0 and c.
func (c cpuTimes) stolenSince(c0 cpuTimes) float64 {
	if c.total <= c0.total {
		return 0
	}
	return float64(c.steal-c0.steal) / float64(c.total-c0.total)
}

// quietSteal is the steal share below which a round counts as calm
// whatever the other rounds saw.
const quietSteal = 0.03

// calmRounds returns the rounds (or restarts) whose steal is at most the
// run's median or quietSteal, whichever is higher: all of them on a quiet
// host, the calmer half on a busy one.
func calmRounds(stolen []float64) []int {
	limit := max(median(stolen), quietSteal)
	var out []int
	for i, s := range stolen {
		if s <= limit {
			out = append(out, i)
		}
	}
	return out
}

func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// resumeStats connects a fresh client to the restarted daemon, resumes
// every tenant's stream and reads its ledger.
func resumeStats(addr string, tenants int) ([]wire.StatsReply, error) {
	c := client.New(client.Config{Addr: addr})
	defer c.Close()
	out := make([]wire.StatsReply, tenants)
	for t := range out {
		if err := c.Resume(t); err != nil {
			return nil, fmt.Errorf("tenant %d: resume: %w", t, err)
		}
		r, err := c.Stats(t)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: stats: %w", t, err)
		}
		out[t] = r
	}
	return out, nil
}

func gateLedger(res *result, when string, tenant int, got, want ledger) {
	res.gate(got == want, "tenant %d %s: daemon {%v}, sequential replay {%v}", tenant, when, got, want)
}

// oracleInput returns the frames the oracle replays. With corrupt set,
// one frame of tenant 0 loses its last request: the parity gates must
// then fail.
func oracleInput(applied [][]frame, corrupt bool) [][]frame {
	if !corrupt {
		return applied
	}
	out := make([][]frame, len(applied))
	copy(out, applied)
	f0 := append([]frame(nil), applied[0]...)
	for i := len(f0) / 2; i < len(f0); i++ {
		if n := len(f0[i].reqs); n > 0 {
			f0[i] = frame{reqs: f0[i].reqs[:n-1]}
			break
		}
	}
	out[0] = f0
	return out
}
