package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/trace"
	"repro/internal/tree"
)

// frame is one wire message of a tenant's stream: a serve batch, or
// (reqs nil) a topology message.
type frame struct {
	reqs trace.Trace
	muts []trace.Mutation
}

// ops counts the frame's ops: requests or mutations.
func (f frame) ops() int { return len(f.reqs) + len(f.muts) }

// buildTree mirrors cmd/treecached's tree construction for one tenant,
// for the shapes the workloads use.
func buildTree(w workload) (*tree.Tree, error) {
	switch w.Tree {
	case "binary":
		return tree.CompleteKary(w.Nodes, 2), nil
	case "ternary":
		return tree.CompleteKary(w.Nodes, 3), nil
	}
	return nil, fmt.Errorf("tree shape %q: the benchmark builds only binary and ternary trees", w.Tree)
}

// A run is a warm-up followed by numRounds rounds; each round is one
// closed-loop segment, then a light and a heavy open-loop window.
// Interleaving the phases spreads every metric's samples over the whole
// run, so a burst of host noise spoils one round of each metric, and the
// median over rounds drops it.
const numRounds = 10

// Steps of a round, in order.
const (
	stClosed = iota
	stLight
	stHeavy
	numSteps
)

var stepNames = [numSteps]string{"closed", "light", "heavy"}

// plan holds each tenant's frame stream and where each step ends in it
// (a frame index, the same for every tenant).
type plan struct {
	w       workload
	trees   []*tree.Tree
	streams [][]frame
	warmEnd int
	rounds  [][numSteps]int
	// ladEnd ends the stream prefix the traced run's ladder replays: as
	// many frames as the warm-up and closed-loop segments together. The
	// traced run then sends half the run's light frames up to lightEnd
	// and half its heavy frames up to tracedEnd.
	ladEnd, lightEnd, tracedEnd int
}

// opsIn counts the ops of frames [lo, hi) over all tenants.
func (p *plan) opsIn(lo, hi int) int {
	n := 0
	for t := range p.streams {
		for _, f := range p.streams[t][lo:hi] {
			n += f.ops()
		}
	}
	return n
}

// rate is the offered rate of an open-loop step.
func (w workload) rate(step int) float64 {
	if step == stHeavy {
		return w.HeavyOpsS
	}
	return w.LightOpsS
}

// isTopo reports whether frame i of a stream is a topology frame:
// streams repeat TopoEvery serve frames then one topology frame.
func (w workload) isTopo(i int) bool {
	return w.TopoEvery > 0 && i%(w.TopoEvery+1) == w.TopoEvery
}

// serveEnd extends a step ending at frame end until its last frame is a
// serve frame.
func (w workload) serveEnd(end int) int {
	for w.isTopo(end - 1) {
		end++
	}
	return end
}

// newPlan sizes the steps for a run of the given length and generates
// every tenant's frames from seed. The closed loop sends a fixed op
// count and the open-loop windows a fixed schedule at the fixed rates,
// so a seed and a length fix all the work. Each step is extended until
// it ends on a serve frame, so a step is complete once the daemon's
// round count reaches its last request.
func newPlan(w workload, tenants int, seed int64, seconds float64) (*plan, error) {
	p := &plan{w: w}
	frames := func(ops float64) int {
		return max(int(math.Ceil(ops/numRounds/float64(tenants)/float64(w.FrameOps))), 1)
	}
	sizes := [numSteps]int{
		frames(w.ClosedOpsPerS * seconds),
		frames(w.LightOpsS * w.OpenFrac * seconds),
		frames(w.HeavyOpsS * w.OpenFrac * seconds),
	}
	end := w.serveEnd(max(w.WarmupFrames, 1))
	p.warmEnd = end
	p.ladEnd = end
	for r := 0; r < numRounds; r++ {
		var rd [numSteps]int
		for st, n := range sizes {
			end = w.serveEnd(end + n)
			rd[st] = end
		}
		p.rounds = append(p.rounds, rd)
		p.ladEnd += sizes[stClosed]
	}
	p.ladEnd = w.serveEnd(p.ladEnd)
	p.lightEnd = w.serveEnd(p.ladEnd + numRounds/2*sizes[stLight])
	p.tracedEnd = w.serveEnd(p.lightEnd + numRounds/2*sizes[stHeavy])
	for t := 0; t < tenants; t++ {
		tr, err := buildTree(w)
		if err != nil {
			return nil, err
		}
		p.trees = append(p.trees, tr)
		s, err := genStream(w, tr, rand.New(rand.NewSource(seed*64+int64(t))), end)
		if err != nil {
			return nil, err
		}
		p.streams = append(p.streams, s)
	}
	return p, nil
}

// genStream generates n frames of one tenant's traffic over t.
func genStream(w workload, t *tree.Tree, rng *rand.Rand, n int) ([]frame, error) {
	nServe := 0
	for i := 0; i < n; i++ {
		if !w.isTopo(i) {
			nServe++
		}
	}
	var reqs trace.Trace
	switch w.Traffic {
	case "random_mixed":
		reqs = trace.RandomMixed(rng, t, nServe*w.FrameOps)
	case "bursts":
		// Each block draws a fresh Zipf popularity order, so a run
		// averages over many hot sets instead of hanging its cost on
		// the one its seed drew.
		for n := nServe * w.FrameOps; len(reqs) < n; {
			reqs = append(reqs, trace.Bursts(rng, t, trace.BurstsConfig{
				Rounds: min(w.BlockReqs, n-len(reqs)), RunLen: w.RunLen, ZipfS: w.ZipfS, NegFrac: w.NegFrac,
			})...)
		}
	default:
		return nil, fmt.Errorf("unknown traffic %q", w.Traffic)
	}
	next := tree.NodeID(t.Len()) // next stable id the tenant's tree.Dyn allocates
	frames := make([]frame, n)
	for i := range frames {
		if !w.isTopo(i) {
			frames[i] = frame{reqs: reqs[:w.FrameOps:w.FrameOps]}
			reqs = reqs[w.FrameOps:]
			continue
		}
		frames[i] = frame{muts: netZeroMuts(rng, t.Len(), &next, w.FrameOps)}
	}
	return frames, nil
}

// netZeroMuts announces k/2 rules under uniformly drawn seed-tree nodes
// and then withdraws them newest first, so the frame leaves the tree
// size unchanged and every mutation is valid by construction.
func netZeroMuts(rng *rand.Rand, n int, next *tree.NodeID, k int) []trace.Mutation {
	muts := make([]trace.Mutation, 0, k)
	for j := 0; j < k/2; j++ {
		muts = append(muts, trace.InsertMut(*next, tree.NodeID(rng.Intn(n))))
		*next++
	}
	for j := len(muts) - 1; j >= 0; j-- {
		muts = append(muts, trace.DeleteMut(muts[j].Node))
	}
	return muts
}
