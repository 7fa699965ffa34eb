package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one frame share (tenant, seq); parent names the span kind
// that caused this one.
type span struct {
	name, parent string
	tenant       int
	seq          int64
	start, end   time.Duration // since the tracer's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) record(name, parent string, tenant int, seq int64, start, end time.Time) {
	s := span{name: name, parent: parent, tenant: tenant, seq: seq,
		start: start.Sub(tr.epoch), end: end.Sub(tr.epoch)}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// window returns a copy of the spans named name that started in
// [from, to).
func (tr *tracer) window(name string, from, to time.Time) []span {
	lo, hi := from.Sub(tr.epoch), to.Sub(tr.epoch)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.name == name && s.start >= lo && s.start < hi {
			out = append(out, s)
		}
	}
	return out
}

// total sums span durations.
func total(ss []span) time.Duration {
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d
}

func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur())
	}
	return out
}

// selfTimes returns each span kind's total self time: a span's duration
// minus the part of its interval covered by its children (spans whose
// parent is its kind, with the same tenant and seq).
func (tr *tracer) selfTimes() map[string]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	type key struct {
		name   string
		tenant int
		seq    int64
	}
	kids := map[key][]span{}
	for _, s := range tr.spans {
		if s.parent != "" {
			k := key{s.parent, s.tenant, s.seq}
			kids[k] = append(kids[k], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range tr.spans {
		cs := kids[key{s.name, s.tenant, s.seq}]
		self[s.name] += s.dur() - covered(s, cs)
	}
	return self
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, cs []span) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if lo < hi {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// write dumps every span as tab-separated name, parent, tenant, seq,
// start_ns, end_ns.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name\tparent\ttenant\tseq\tstart_ns\tend_ns")
	tr.mu.Lock()
	for _, s := range tr.spans {
		fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%d\t%d\n", s.name, s.parent, s.tenant, s.seq, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
