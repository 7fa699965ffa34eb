package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// stream is one tenant's connection and its position in the tenant's
// frame stream. Only its own goroutine touches it during a phase.
type stream struct {
	tenant int
	cl     *client.Client
	frames []frame
	// sent counts frames attempted, acked those acknowledged; lost
	// marks frames the client gave up on that the daemon never applied
	// (the oracle skips them).
	sent, acked, failed int
	lost                map[int]bool
}

func newStreams(addr string, p *plan, seed int64) []*stream {
	ss := make([]*stream, len(p.streams))
	for t := range ss {
		ss[t] = &stream{
			tenant: t,
			cl:     client.New(client.Config{Addr: addr, Seed: seed*64 + int64(t) + 1}),
			frames: p.streams[t],
			lost:   map[int]bool{},
		}
	}
	return ss
}

func closeStreams(ss []*stream) {
	for _, s := range ss {
		s.cl.Close()
	}
}

// appliedBefore counts the frames before index end the daemon applied.
func (s *stream) appliedBefore(end int) int {
	n := end
	for i := range s.lost {
		if i < end {
			n--
		}
	}
	return n
}

// applied returns the frames of s's stream the daemon applied, in order.
func (s *stream) applied() []frame {
	out := make([]frame, 0, s.sent)
	for i, f := range s.frames[:s.sent] {
		if !s.lost[i] {
			out = append(out, f)
		}
	}
	return out
}

// sendNext sends the next frame and blocks until it is acknowledged or
// the client gives up. A frame the client gave up on may still have
// been applied, so the stream then re-reads the daemon's sequence
// number to learn which, and continues from it.
func (s *stream) sendNext(tr *tracer) error {
	i := s.sent
	f := s.frames[i]
	s.sent++
	start := time.Now()
	var err error
	if f.muts == nil {
		err = s.cl.Serve(s.tenant, f.reqs)
	} else {
		err = s.cl.ApplyTopology(s.tenant, f.muts)
	}
	if tr != nil {
		tr.record("client.frame", "", s.tenant, int64(s.acked+1), start, time.Now())
	}
	if err == nil {
		s.acked++
		return nil
	}
	s.failed++
	before := s.acked
	if rerr := s.cl.Resume(s.tenant); rerr != nil {
		return fmt.Errorf("tenant %d: frame %d failed (%v) and resume failed: %w", s.tenant, i, err, rerr)
	}
	st, rerr := s.cl.Stats(s.tenant)
	if rerr != nil {
		return fmt.Errorf("tenant %d: stats after failed frame: %w", s.tenant, rerr)
	}
	switch st.LastSeq {
	case uint64(before) + 1:
		s.acked++ // applied, ack lost
	case uint64(before):
		s.lost[i] = true
	default:
		return fmt.Errorf("tenant %d: frame %d failed and daemon sequence is %d, expected %d or %d",
			s.tenant, i, st.LastSeq, before, before+1)
	}
	return nil
}

// eachStream runs fn on every stream concurrently and returns the first
// error.
func eachStream(ss []*stream, fn func(s *stream) error) error {
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *stream) {
			defer wg.Done()
			errs[i] = fn(s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closedLoop sends every stream's frames up to end, each only after the
// previous one was acknowledged.
func closedLoop(ss []*stream, end int, tr *tracer) error {
	return eachStream(ss, func(s *stream) error {
		for s.sent < end {
			if err := s.sendNext(tr); err != nil {
				return err
			}
		}
		return nil
	})
}

// openSample is one open-loop frame: latency from its due time to the
// ack, and how late the generator sent it. A failed frame keeps the
// time the client spent before giving up as its latency.
type openSample struct {
	lat, lag time.Duration
	failed   bool
}

// openLoop sends every stream's frames up to end on a fixed schedule at
// opsPerSec over all streams: each stream's frames fall due every
// FrameOps/(opsPerSec/streams) seconds, streams staggered evenly. A late
// ack delays the next send; latency still counts from the due time. It
// returns each stream's samples in schedule order.
func openLoop(ss []*stream, end int, frameOps int, opsPerSec float64, tr *tracer) ([][]openSample, error) {
	interval := time.Duration(float64(frameOps) * float64(len(ss)) / opsPerSec * float64(time.Second))
	per := make([][]openSample, len(ss))
	start := time.Now().Add(time.Millisecond)
	err := eachStream(ss, func(s *stream) error {
		due := start.Add(interval * time.Duration(s.tenant) / time.Duration(len(ss)))
		for s.sent < end {
			sleepUntil(due)
			sentAt := time.Now()
			failedBefore := s.failed
			if err := s.sendNext(tr); err != nil {
				return err
			}
			per[s.tenant] = append(per[s.tenant], openSample{
				lat: time.Since(due), lag: sentAt.Sub(due), failed: s.failed > failedBefore,
			})
			due = due.Add(interval)
		}
		return nil
	})
	return per, err
}

// sleepUntil blocks the calling thread until t. The runtime's timers
// round sub-millisecond sleeps up to about a millisecond on Linux;
// nanosleep wakes within tens of microseconds, which the open-loop
// schedules need at sub-millisecond frame intervals.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// awaitServed polls tenant's Stats until its round count reaches rounds
// (every request sent so far served, not just acknowledged) and returns
// the reply.
func awaitServed(st *client.Client, tenant int, rounds int64) (wire.StatsReply, error) {
	deadline := time.Now().Add(readyTimeout)
	for {
		r, err := st.Stats(tenant)
		if err != nil {
			return r, fmt.Errorf("tenant %d stats: %w", tenant, err)
		}
		if r.Rounds >= rounds {
			return r, nil
		}
		if time.Now().After(deadline) {
			return r, fmt.Errorf("tenant %d: %d of %d rounds served after %v", tenant, r.Rounds, rounds, readyTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// awaitAllServed waits until every stream's sent requests are served and
// returns the per-tenant Stats replies.
func awaitAllServed(st *client.Client, ss []*stream) ([]wire.StatsReply, error) {
	out := make([]wire.StatsReply, len(ss))
	for t, s := range ss {
		var want int64
		for i, f := range s.frames[:s.sent] {
			if !s.lost[i] {
				want += int64(len(f.reqs))
			}
		}
		r, err := awaitServed(st, t, want)
		if err != nil {
			return nil, err
		}
		out[t] = r
	}
	return out, nil
}
