package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tree"
	"repro/internal/wire"
)

// ledger is the part of a tenant's state the correctness gates compare:
// the daemon's Stats reply against a sequential replay.
type ledger struct {
	Rounds, Serve, Move, Fetched, Evicted int64
}

func (l ledger) String() string {
	return fmt.Sprintf("rounds=%d serve=%d move=%d fetched=%d evicted=%d",
		l.Rounds, l.Serve, l.Move, l.Fetched, l.Evicted)
}

func ledgerOf(r wire.StatsReply) ledger {
	return ledger{r.Rounds, r.Serve, r.Move, r.Fetched, r.Evicted}
}

func add(a, b ledger) ledger {
	return ledger{a.Rounds + b.Rounds, a.Serve + b.Serve, a.Move + b.Move, a.Fetched + b.Fetched, a.Evicted + b.Evicted}
}

// newCore builds a fresh shard instance exactly as the daemon does.
func newCore(t *tree.Tree, w workload) *core.MutableTC {
	return core.NewMutable(t, core.MutableConfig{
		Config: core.Config{Alpha: w.Alpha, Capacity: w.Capacity},
	})
}

// apply feeds one frame to a shard instance the way an engine worker
// does: a serve frame as one batch, a topology frame one mutation at a
// time, dropping the rest of the frame at the first rejected mutation.
func apply(m *core.MutableTC, f frame) {
	if f.muts == nil {
		m.ServeBatch(f.reqs)
		return
	}
	for i := range f.muts {
		if m.ApplyTopology(f.muts[i:i+1]) != nil {
			return
		}
	}
}

func ledgerOfCore(m *core.MutableTC) ledger {
	l := m.Ledger()
	return ledger{m.Round(), l.Serve, l.Move, l.Fetched, l.Evicted}
}

// replay is the sequential replay of every tenant's frames.
type replay struct {
	// ledgers[t][i] is tenant t's ledger after frames [0, marks[t][i]).
	ledgers [][]ledger
	cores   []*core.MutableTC
	// first is when the last tenant passed its first mark.
	first time.Duration
}

// oracle replays each tenant's frames on a fresh instance, one
// goroutine per tenant, recording the ledger at every mark (a frame
// count).
func oracle(p *plan, frames [][]frame, marks [][]int) replay {
	r := replay{ledgers: make([][]ledger, len(frames)), cores: make([]*core.MutableTC, len(frames))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for t := range frames {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			m := newCore(p.trees[t], p.w)
			done := 0
			for i, mark := range marks[t] {
				for _, f := range frames[t][done:mark] {
					apply(m, f)
				}
				done = mark
				if i == 0 {
					mu.Lock()
					r.first = max(r.first, time.Since(start))
					mu.Unlock()
				}
				r.ledgers[t] = append(r.ledgers[t], ledgerOfCore(m))
			}
			r.cores[t] = m
		}(t)
	}
	wg.Wait()
	return r
}
