package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// tracedAlgo times a shard's calls into the core and snapshot layers
// from outside them. It forwards every interface snapshot.Checkpointed
// exposes — engine.SnapshotVerifier included, or supervision would
// silently skip verification and the traced program would differ from
// the real one.
type tracedAlgo struct {
	inner  server.Algo
	tr     *tracer
	tenant int
	frames []frame
	// Worker-confined: seq is the stream position of the message being
	// served (frames are served in stream order), mutLeft the mutations
	// of the current topology frame still to come, last the span kind
	// of the last message, applyStart when that frame's first mutation
	// began. The totals are read after the engine has closed.
	seq        int64
	mutLeft    int
	last       string
	applyStart time.Time
	serveNs    int64
	reqs       int64
	applyNs    int64
	muts       int64
	blob       []byte // last captured snapshot
}

var (
	_ server.Algo             = (*tracedAlgo)(nil)
	_ engine.SnapshotVerifier = (*tracedAlgo)(nil)
)

func (a *tracedAlgo) Name() string                         { return a.inner.Name() }
func (a *tracedAlgo) Serve(r trace.Request) (int64, int64) { return a.inner.Serve(r) }
func (a *tracedAlgo) CacheLen() int                        { return a.inner.CacheLen() }
func (a *tracedAlgo) Ledger() cache.Ledger                 { return a.inner.Ledger() }
func (a *tracedAlgo) MaxCacheLen() int                     { return a.inner.MaxCacheLen() }

func (a *tracedAlgo) ServeBatch(batch trace.Trace) (int64, int64) {
	a.seq++
	start := time.Now()
	s, m := a.inner.ServeBatch(batch)
	end := time.Now()
	a.serveNs += end.Sub(start).Nanoseconds()
	a.reqs += int64(len(batch))
	a.last = "core.serve"
	a.tr.record(a.last, "client.frame", a.tenant, a.seq, start, end)
	return s, m
}

// ApplyTopology is called once per mutation; one span covers a whole
// topology frame, from its first mutation to its last.
func (a *tracedAlgo) ApplyTopology(muts []trace.Mutation) error {
	start := time.Now()
	if a.mutLeft == 0 {
		a.seq++
		a.applyStart = start
		if i := int(a.seq) - 1; i < len(a.frames) {
			a.mutLeft = len(a.frames[i].muts)
		}
	}
	err := a.inner.ApplyTopology(muts)
	end := time.Now()
	a.applyNs += end.Sub(start).Nanoseconds()
	a.muts += int64(len(muts))
	if a.mutLeft -= len(muts); a.mutLeft <= 0 || err != nil {
		a.mutLeft = 0
		a.last = "core.apply"
		a.tr.record(a.last, "client.frame", a.tenant, a.seq, a.applyStart, end)
	}
	return err
}

func (a *tracedAlgo) Snapshot() ([]byte, error) {
	start := time.Now()
	blob, err := a.inner.Snapshot()
	a.tr.record("snapshot.capture", a.last, a.tenant, a.seq, start, time.Now())
	if err == nil {
		a.blob = blob
	}
	return blob, err
}

func (a *tracedAlgo) Restore(data []byte) error {
	start := time.Now()
	err := a.inner.Restore(data)
	a.tr.record("snapshot.restore", a.last, a.tenant, a.seq, start, time.Now())
	return err
}

func (a *tracedAlgo) VerifySnapshot(data []byte) error {
	v, ok := a.inner.(engine.SnapshotVerifier)
	if !ok {
		return nil
	}
	start := time.Now()
	err := v.VerifySnapshot(data)
	a.tr.record("snapshot.verify", a.last, a.tenant, a.seq, start, time.Now())
	return err
}

func (a *tracedAlgo) Close() {
	if c, ok := a.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// runTraced replays the run's frames up the layer ladder — core alone,
// engine, wire codec, the in-process daemon (untraced and traced), the
// WAL and WAL replay — and derives the per-layer metrics from the rungs
// and the spans.
func runTraced(o options, sp *spec, w workload, res *result, vals map[string]float64) error {
	p, err := newPlan(w, sp.Tenants, o.seed, o.seconds)
	if err != nil {
		return err
	}
	root, err := os.MkdirTemp(o.work, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	ladEnd := p.ladEnd
	var ladOps int
	for t := range p.streams {
		for _, f := range p.streams[t][:ladEnd] {
			ladOps += f.ops()
		}
	}
	perShard := float64(ladOps) / float64(len(p.streams))

	// Rung 1: core alone, one goroutine per tenant; it is also the
	// sequential replay every other rung is checked against.
	marks := make([][]int, len(p.streams))
	for t := range marks {
		marks[t] = []int{ladEnd, p.tracedEnd}
	}
	orc := oracle(p, oracleInput(p.streams, o.corrupt), marks)
	coreWall, want := orc.first, orc.ledgers
	var rebuilds, moves, ops int64
	for t, m := range orc.cores {
		rebuilds += m.Rebuilds()
		moves += want[t][1].Move
		for _, f := range p.streams[t][:p.tracedEnd] {
			ops += int64(f.ops())
		}
	}
	vals["core.rebuilds"] = float64(rebuilds)
	vals["core.moves_per_kop"] = float64(moves) / float64(ops) * 1000

	// Rung 2: engine.
	eng, err := rungEngine(sp, p, ladEnd)
	if err != nil {
		return err
	}
	for t := range eng.ledgers {
		gateLedger(res, "engine rung", t, eng.ledgers[t], want[t][0])
	}
	vals["engine.self_ns_per_op"] = float64(eng.wall-coreWall-eng.snapNs/time.Duration(len(p.streams))) / perShard
	vals["engine.submit_block_p99_us"] = us(quantile(eng.submitNs, 0.99))

	// Rung 3: wire codec, no socket.
	wr, err := rungWire(p, ladEnd)
	if err != nil {
		res.gate(false, "wire rung: %v", err)
	}
	vals["wire.encode_ns_per_op"] = wr.encNs / float64(ladOps)
	vals["wire.decode_ns_per_op"] = wr.decNs / float64(ladOps)
	vals["wire.bytes_per_op"] = wr.bytes / float64(ladOps)

	// Rung 4: the in-process daemon, untraced before and after the
	// traced run, so process warm-up does not bias the overhead.
	var untraced [2]*serverResult
	if untraced[0], err = serverRun(sp, w, p, filepath.Join(root, "untraced-0"), nil, false); err != nil {
		return err
	}
	tr := newTracer()
	sr, err := serverRun(sp, w, p, filepath.Join(root, "traced"), tr, true)
	if err != nil {
		return err
	}
	if untraced[1], err = serverRun(sp, w, p, filepath.Join(root, "untraced-1"), nil, false); err != nil {
		return err
	}
	plain := (untraced[0].closedWall + untraced[1].closedWall).Seconds() / 2
	vals["trace.overhead_frac"] = sr.closedWall.Seconds()/plain - 1
	for t := range sr.final {
		gateLedger(res, "traced daemon", t, ledgerOf(sr.final[t]), want[t][1])
		gateLedger(res, "traced daemon closed loop", t, ledgerOf(sr.closedStats[t]), want[t][0])
		for _, u := range untraced {
			gateLedger(res, "untraced daemon", t, ledgerOf(u.closedStats[t]), want[t][0])
		}
	}
	var serveNs, reqs, applyNs, muts int64
	var blobBytes []float64
	var blobs [][]byte
	for _, a := range sr.algos {
		serveNs += a.serveNs
		reqs += a.reqs
		applyNs += a.applyNs
		muts += a.muts
		blobBytes = append(blobBytes, float64(len(a.blob)))
		blobs = append(blobs, a.blob)
	}
	vals["core.serve_ns_per_req"] = float64(serveNs) / float64(reqs)
	vals["core.apply_us_per_mut"] = 0
	if muts > 0 {
		vals["core.apply_us_per_mut"] = us(float64(applyNs) / float64(muts))
	}
	workerNs := float64(sr.closedWall) * float64(len(p.streams))
	coreSpans := tr.window("core.serve", sr.closedFrom, sr.closedTo)
	coreSpans = append(coreSpans, tr.window("core.apply", sr.closedFrom, sr.closedTo)...)
	caps := tr.window("snapshot.capture", sr.closedFrom, sr.closedTo)
	vers := tr.window("snapshot.verify", sr.closedFrom, sr.closedTo)
	vals["core.busy_frac"] = float64(total(coreSpans)) / workerNs
	vals["snapshot.busy_frac"] = float64(total(caps)+total(vers)) / workerNs
	allCaps := tr.window("snapshot.capture", tr.epoch, time.Now())
	allVers := tr.window("snapshot.verify", tr.epoch, time.Now())
	vals["snapshot.capture_ms_p50"] = ms(median(durations(allCaps)))
	vals["snapshot.verify_ms_p50"] = ms(median(durations(allVers)))
	vals["snapshot.bytes"] = median(blobBytes)
	restoreNs, err := timeRestores(blobs, want)
	if err != nil {
		res.gate(false, "snapshot restore: %v", err)
	}
	vals["snapshot.restore_ms"] = ms(restoreNs)
	vals["engine.queue_depth_max"] = float64(sr.queueMax)
	vals["client.rtt_p50_us"] = us(quantile(sr.lightRTT, 0.5))
	vals["client.rtt_p99_us"] = us(quantile(sr.lightRTT, 0.99))
	vals["client.retries"] = float64(sr.retries)
	vals["client.fail_frac"] = float64(sr.failed) / float64(sr.attempted)
	vals["loadgen.lag_p99_us"] = us(quantile(sr.lags, 0.99))
	res.Attempted, res.Failed = sr.attempted, sr.failed

	// Rung 5: the program's own WAL recovery, which also yields the
	// records the daemon logged.
	rp, err := rungReplay(sp, w, p, o.corrupt, filepath.Join(root, "replay"), res)
	if err != nil {
		return err
	}
	vals["wal.replay_s"] = rp.took.Seconds()

	// Rung 6: those records through wal.Open/Append/Wait, on a directory
	// beside the daemon's state.
	wl, err := rungWAL(rp.recs, w.WALFrames, filepath.Join(root, "wal"), sp.Daemon.fsyncInterval())
	if err != nil {
		return err
	}
	vals["wal.append_us_p50"] = us(quantile(wl.appendNs, 0.5))
	vals["wal.wait_us_p50"] = us(quantile(wl.waitNs, 0.5))
	vals["wal.wait_us_p99"] = us(quantile(wl.waitNs, 0.99))
	vals["wal.records_per_fsync"] = wl.recsPerSync
	vals["wal.bytes_per_op"] = wl.bytes / float64(p.opsIn(0, min(w.WALFrames, len(p.streams[0]))))

	frameNs := (wr.encNs + wr.decNs) / float64(wr.frames)
	serverNs := quantile(sr.lightRTT, 0.5) - frameNs
	if w.WAL {
		serverNs -= quantile(wl.appendNs, 0.5) + quantile(wl.waitNs, 0.5)
	}
	vals["server.self_us_per_frame"] = us(serverNs)

	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.note("self time %-18s %12.3f ms", name, ms(float64(self[name])))
	}
	res.note("ladder per shard: core %.3fs, engine %.3fs (snapshot %.3fs)", coreWall.Seconds(), eng.wall.Seconds(), (eng.snapNs / time.Duration(len(p.streams))).Seconds())
	res.note("daemon closed loop: untraced %.3fs and %.3fs, traced %.3fs",
		untraced[0].closedWall.Seconds(), untraced[1].closedWall.Seconds(), sr.closedWall.Seconds())
	spans := filepath.Join(o.work, "spans-"+w.Name+".tsv")
	if err := tr.write(spans); err != nil {
		return err
	}
	res.note("spans: %s", spans)
	return nil
}

type engineRung struct {
	wall     time.Duration
	snapNs   time.Duration // snapshot capture and verify, all shards
	submitNs []float64
	ledgers  []ledger
}

// rungEngine submits frames [0, ladEnd) through engine.New with the
// daemon's queue and supervision cadence, one submitter per tenant, and
// drains.
func rungEngine(sp *spec, p *plan, ladEnd int) (engineRung, error) {
	tr := newTracer()
	algos := make([]*tracedAlgo, len(p.streams))
	e := engine.New(engine.Config{
		Shards: len(p.streams),
		NewShard: func(i int) engine.Algorithm {
			algos[i] = &tracedAlgo{
				inner: snapshot.Checkpointed{MutableTC: newCore(p.trees[i], p.w)},
				tr:    tr, tenant: i, frames: p.streams[i],
			}
			return algos[i]
		},
		QueueLen:        sp.Daemon.Queue,
		CheckpointEvery: sp.Daemon.CheckpointEvery,
	})
	submits := make([][]float64, len(p.streams))
	errs := make([]error, len(p.streams))
	var wg sync.WaitGroup
	start := time.Now()
	for t := range p.streams {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for _, f := range p.streams[t][:ladEnd] {
				s := time.Now()
				var err error
				if f.muts == nil {
					err = e.Submit(t, f.reqs)
				} else {
					err = e.ApplyTopology(t, f.muts)
				}
				submits[t] = append(submits[t], float64(time.Since(s)))
				if err != nil {
					errs[t] = err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	e.Drain()
	r := engineRung{wall: time.Since(start)}
	st := e.Stats()
	e.Close()
	for t, err := range errs {
		if err != nil {
			return r, fmt.Errorf("engine rung tenant %d: %w", t, err)
		}
	}
	for t, ss := range st.Shards {
		r.ledgers = append(r.ledgers, ledger{ss.Rounds, ss.Serve, ss.Move, ss.Fetched, ss.Evicted})
		r.submitNs = append(r.submitNs, submits[t]...)
	}
	r.snapNs = total(tr.window("snapshot.capture", tr.epoch, time.Now())) +
		total(tr.window("snapshot.verify", tr.epoch, time.Now()))
	return r, nil
}

type wireRung struct {
	encNs, decNs, bytes float64
	frames              int
}

// rungWire encodes frames [0, ladEnd) and their acks into buffers the
// way client and daemon do, then reads and decodes them back.
func rungWire(p *plan, ladEnd int) (wireRung, error) {
	var r wireRung
	var reqBuf, ackBuf []byte
	start := time.Now()
	for t := range p.streams {
		for i, f := range p.streams[t][:ladEnd] {
			seq := uint64(i + 1)
			if f.muts == nil {
				reqBuf = wire.AppendFrame(reqBuf, wire.TServe, wire.Serve{Tenant: t, Seq: seq, DeadlineNs: int64(5 * time.Second), Batch: f.reqs}.Encode())
			} else {
				reqBuf = wire.AppendFrame(reqBuf, wire.TTopo, wire.Topo{Tenant: t, Seq: seq, DeadlineNs: int64(5 * time.Second), Muts: f.muts}.Encode())
			}
			ackBuf = wire.AppendFrame(ackBuf, wire.TAck, wire.Ack{Seq: seq}.Encode())
			r.frames++
		}
	}
	r.encNs = float64(time.Since(start))
	r.bytes = float64(len(reqBuf) + len(ackBuf))

	type decoded struct {
		reqs trace.Trace
		muts []trace.Mutation
	}
	out := make([]decoded, 0, r.frames)
	reqR, ackR := bytes.NewReader(reqBuf), bytes.NewReader(ackBuf)
	start = time.Now()
	for i := 0; i < r.frames; i++ {
		fr, err := wire.ReadFrame(reqR, 0)
		if err != nil {
			return r, err
		}
		var d decoded
		if fr.Type == wire.TServe {
			m, err := wire.DecodeServe(fr.Payload)
			if err != nil {
				return r, err
			}
			d.reqs = m.Batch
		} else {
			m, err := wire.DecodeTopo(fr.Payload)
			if err != nil {
				return r, err
			}
			d.muts = m.Muts
		}
		out = append(out, d)
		af, err := wire.ReadFrame(ackR, 0)
		if err != nil {
			return r, err
		}
		if _, err := wire.DecodeAck(af.Payload); err != nil {
			return r, err
		}
	}
	r.decNs = float64(time.Since(start))

	i := 0
	for t := range p.streams {
		for _, f := range p.streams[t][:ladEnd] {
			if !sameFrame(f, frame(out[i])) {
				return r, fmt.Errorf("tenant %d frame %d does not survive encode and decode", t, i)
			}
			i++
		}
	}
	return r, nil
}

func sameFrame(a, b frame) bool {
	if len(a.reqs) != len(b.reqs) || len(a.muts) != len(b.muts) {
		return false
	}
	for i := range a.reqs {
		if a.reqs[i] != b.reqs[i] {
			return false
		}
	}
	for i := range a.muts {
		if a.muts[i] != b.muts[i] {
			return false
		}
	}
	return true
}

type serverResult struct {
	closedWall           time.Duration
	closedFrom, closedTo time.Time
	closedStats, final   []wire.StatsReply
	algos                []*tracedAlgo
	queueMax             int
	lightRTT, lags       []float64
	retries              int64
	attempted, failed    int
}

// serverConfig configures an in-process daemon with the flags the
// end-to-end run passes treecached for w, with the WAL on or off.
func serverConfig(sp *spec, w workload, p *plan, dir string, walOn bool) server.Config {
	cfg := server.Config{
		Addr:            "127.0.0.1:0",
		StateDir:        dir,
		Trees:           p.trees,
		Alpha:           w.Alpha,
		Capacity:        w.Capacity,
		QueueLen:        sp.Daemon.Queue,
		CheckpointEvery: sp.Daemon.CheckpointEvery,
	}
	if walOn {
		cfg.WALDir = dir
		cfg.FsyncInterval = sp.Daemon.fsyncInterval()
	}
	return cfg
}

// serverRun runs the daemon in process with the workload's flags and
// drives it with the benchmark's load model: warm-up and closed loop,
// then (full) the light and heavy open-loop phases. With tr set, every
// shard runs under tracedAlgo and every frame gets a client span.
func serverRun(sp *spec, w workload, p *plan, dir string, tr *tracer, full bool) (*serverResult, error) {
	r := &serverResult{}
	cfg := serverConfig(sp, w, p, dir, w.WAL)
	if tr != nil {
		r.algos = make([]*tracedAlgo, len(p.trees))
		cfg.Wrap = func(i int, algo server.Algo) server.Algo {
			r.algos[i] = &tracedAlgo{inner: algo, tr: tr, tenant: i, frames: p.streams[i]}
			return r.algos[i]
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())
	ss := newStreams(srv.Addr(), p, 0)
	defer closeStreams(ss)
	stc := client.New(client.Config{Addr: srv.Addr()})
	defer stc.Close()

	if err := closedLoop(ss, p.warmEnd, tr); err != nil {
		return nil, err
	}
	if _, err := awaitAllServed(stc, ss); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, s := range srv.Engine().Stats().Shards {
					r.queueMax = max(r.queueMax, s.QueueDepth)
				}
			}
		}
	}()
	r.closedFrom = time.Now()
	err = closedLoop(ss, p.ladEnd, tr)
	if err == nil {
		r.closedStats, err = awaitAllServed(stc, ss)
	}
	r.closedTo = time.Now()
	r.closedWall = r.closedTo.Sub(r.closedFrom)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if full {
		for _, step := range []int{stLight, stHeavy} {
			end := p.tracedEnd
			if step == stLight {
				end = p.lightEnd
			}
			per, err := openLoop(ss, end, w.FrameOps, w.rate(step), tr)
			if err != nil {
				return nil, err
			}
			for _, samples := range per {
				for _, s := range samples {
					r.lags = append(r.lags, float64(s.lag))
					if step == stLight {
						r.lightRTT = append(r.lightRTT, float64(s.lat-s.lag))
					}
				}
			}
		}
		if r.final, err = awaitAllServed(stc, ss); err != nil {
			return nil, err
		}
	}
	for _, s := range ss {
		r.retries += s.cl.Retries()
		r.attempted += s.sent
		r.failed += s.failed
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	return r, nil
}

// timeRestores restores every shard's last checkpoint blob — the one
// the drain took, so it must hold the final ledger — and returns the
// median time of one snapshot.Restore.
func timeRestores(blobs [][]byte, want [][]ledger) (float64, error) {
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		for t, b := range blobs {
			start := time.Now()
			m, err := snapshot.Restore(b)
			if err != nil {
				return 0, err
			}
			ns = append(ns, float64(time.Since(start)))
			if got := ledgerOfCore(m); got != want[t][1] {
				return 0, fmt.Errorf("tenant %d: restored {%v}, want {%v}", t, got, want[t][1])
			}
		}
	}
	return median(ns), nil
}

type walRung struct {
	appendNs, waitNs   []float64
	recsPerSync, bytes float64
}

// rungWAL appends the first n records of every tenant's log to a log of
// its own with the daemon's group-commit window, one closed-loop writer
// per tenant, each waiting for durability before the next append.
func rungWAL(recs [][][]byte, n int, dir string, window time.Duration) (walRung, error) {
	var r walRung
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	logs := make([]*wal.Log, len(recs))
	for t := range logs {
		l, _, err := wal.Open(filepath.Join(dir, fmt.Sprintf("shard-%d.wal", t)), wal.Options{SyncInterval: window})
		if err != nil {
			return r, err
		}
		logs[t] = l
	}
	appends := make([][]float64, len(logs))
	waits := make([][]float64, len(logs))
	errs := make([]error, len(logs))
	var wg sync.WaitGroup
	for t := range logs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for _, rec := range recs[t][:min(n, len(recs[t]))] {
				s := time.Now()
				lsn, err := logs[t].Append(rec)
				a := time.Now()
				if err == nil {
					err = logs[t].Wait(lsn)
				}
				if err != nil {
					errs[t] = err
					return
				}
				appends[t] = append(appends[t], float64(a.Sub(s)))
				waits[t] = append(waits[t], float64(time.Since(a)))
			}
		}(t)
	}
	wg.Wait()
	var nrecs, syncs, bytes int64
	for t, l := range logs {
		st := l.Stats()
		nrecs += st.Records
		syncs += st.Syncs
		bytes += st.Bytes
		if err := l.Close(); err != nil && errs[t] == nil {
			errs[t] = err
		}
		r.appendNs = append(r.appendNs, appends[t]...)
		r.waitNs = append(r.waitNs, waits[t]...)
	}
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	r.recsPerSync = float64(nrecs) / float64(max(syncs, 1))
	r.bytes = float64(bytes)
	return r, nil
}

type replayRung struct {
	took time.Duration
	// recs[t] are the records tenant t's log held at the crash.
	recs [][][]byte
}

// rungReplay times the program's own WAL recovery. An in-process daemon
// with the workload's flags and the WAL on is sent frames [0, ladEnd) on
// a WAL workload, the first WALFrames otherwise; it is crashed with
// Server.Kill and rebuilt with server.New and Start on the same
// directory, which return once checkpoint restore and WAL replay are done
// and the daemon is ready. The recovered ledgers and sequence numbers are
// gated against the sequential replay and the acked frames.
func rungReplay(sp *spec, w workload, p *plan, corrupt bool, dir string, res *result) (replayRung, error) {
	var r replayRung
	n := w.WALFrames
	if w.WAL {
		n = p.ladEnd
	}
	n = w.serveEnd(min(n, len(p.streams[0])))
	cfg := serverConfig(sp, w, p, dir, true)
	srv, err := server.New(cfg)
	if err != nil {
		return r, err
	}
	if err := srv.Start(); err != nil {
		return r, err
	}
	ss := newStreams(srv.Addr(), p, 0)
	stc := client.New(client.Config{Addr: srv.Addr()})
	err = closedLoop(ss, n, nil)
	if err == nil {
		_, err = awaitAllServed(stc, ss)
	}
	stc.Close()
	closeStreams(ss)
	srv.Kill()
	if err != nil {
		return r, err
	}

	// The logs as the crash left them, read before recovery rewrites
	// them.
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return r, err
	}
	if len(paths) != len(p.streams) {
		return r, fmt.Errorf("replay rung: %d WAL files after the crash, want %d", len(paths), len(p.streams))
	}
	sort.Strings(paths)
	for _, path := range paths {
		l, recs, err := wal.Open(path, wal.Options{})
		if err != nil {
			return r, err
		}
		if err := l.Close(); err != nil {
			return r, err
		}
		r.recs = append(r.recs, recs)
	}

	start := time.Now()
	srv, err = server.New(cfg)
	if err != nil {
		return r, err
	}
	if err := srv.Start(); err != nil {
		return r, err
	}
	r.took = time.Since(start)
	defer srv.Shutdown(context.Background())
	after, err := resumeStats(srv.Addr(), len(p.streams))
	if err != nil {
		return r, err
	}
	marks := make([][]int, len(ss))
	applied := make([][]frame, len(ss))
	for t, s := range ss {
		applied[t] = s.applied()
		marks[t] = []int{len(applied[t])}
	}
	want := oracle(p, oracleInput(applied, corrupt), marks).ledgers
	for t, s := range ss {
		gateLedger(res, "after WAL replay", t, ledgerOf(after[t]), want[t][0])
		res.gate(after[t].LastSeq == uint64(s.acked), "tenant %d: LastSeq %d after WAL replay, %d frames acked", t, after[t].LastSeq, s.acked)
	}
	return r, srv.Shutdown(context.Background())
}
