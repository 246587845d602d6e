package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"time"

	"repro/internal/ssdio"
	"repro/internal/vtime"
)

// span is one call the benchmark made into a layer's public function.
type span struct {
	id, parent, op int64
	name           string
	hostStart      int64 // host ns since the tracer started
	hostEnd        int64
	vStart, vDone  vtime.Ticks
	n              int // result size: records a scan returned
	deltas         []ctrDelta
	events         []ioEvent
}

// ctrDelta is one counter that moved across a span's call.
type ctrDelta struct {
	c ctr
	d int64
}

// ioEvent is one submission unit the I/O plane ruled on during a span.
type ioEvent struct {
	File  string      `json:"file"`
	Call  string      `json:"call"`
	At    vtime.Ticks `json:"vtime"`
	Reqs  int         `json:"reqs"`
	Bytes int         `json:"bytes"`
}

// tracer records spans in memory. It is also the observe-only injector
// installed on the ssdio.Space of a traced run: it logs each submission
// as a child event of the innermost open span and always returns the
// zero FaultDecision, so the simulation is not perturbed.
type tracer struct {
	st    *stack
	epoch time.Time
	spans []*span
	open  []openSpan
}

// openSpan is a span whose call has not returned, with the counter
// reading taken when it began.
type openSpan struct {
	s      *span
	before counters
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// attach points the tracer at a freshly built stack.
func (t *tracer) attach(st *stack) {
	t.st = st
	st.space.SetInjector(t)
}

// Decide implements ssdio.Injector.
func (t *tracer) Decide(file, call string, at vtime.Ticks, reqs []ssdio.Req) ssdio.FaultDecision {
	if len(t.open) > 0 {
		bytes := 0
		for _, r := range reqs {
			bytes += len(r.Buf)
		}
		s := t.open[len(t.open)-1].s
		s.events = append(s.events, ioEvent{File: file, Call: call, At: at, Reqs: len(reqs), Bytes: bytes})
	}
	return ssdio.FaultDecision{}
}

// begin opens a span; the innermost open span is its parent.
func (t *tracer) begin(name string, op int64, at vtime.Ticks) *span {
	s := &span{id: int64(len(t.spans) + 1), op: op, name: name, vStart: at}
	if len(t.open) > 0 {
		s.parent = t.open[len(t.open)-1].s.id
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, openSpan{s: s, before: t.st.read()})
	s.hostStart = int64(time.Since(t.epoch))
	return s
}

// end closes the innermost span with the call's vtime completion.
func (t *tracer) end(s *span, done vtime.Ticks, n int) {
	s.hostEnd = int64(time.Since(t.epoch))
	s.vDone, s.n = done, n
	d := t.st.read().sub(t.open[len(t.open)-1].before)
	for c, v := range d {
		if v != 0 {
			s.deltas = append(s.deltas, ctrDelta{c: ctr(c), d: v})
		}
	}
	t.open = t.open[:len(t.open)-1]
}

func (s *span) delta(c ctr) int64 {
	for _, d := range s.deltas {
		if d.c == c {
			return d.d
		}
	}
	return 0
}

func (s *span) hostNs() int64 { return s.hostEnd - s.hostStart }

// spanLine is the JSON form of a span in the trace file.
type spanLine struct {
	ID          int64            `json:"id"`
	Parent      int64            `json:"parent"`
	Op          int64            `json:"op"`
	Name        string           `json:"name"`
	HostStartNs int64            `json:"host_start_ns"`
	HostEndNs   int64            `json:"host_end_ns"`
	VStart      vtime.Ticks      `json:"vtime_start"`
	VDone       vtime.Ticks      `json:"vtime_done"`
	Records     int              `json:"records,omitempty"`
	Deltas      map[string]int64 `json:"deltas"`
	IO          []ioEvent        `json:"io,omitempty"`
}

// write stores the spans as gzipped JSON lines, one span per line with
// its counter deltas and I/O events nested.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<20)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		l := spanLine{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
			HostStartNs: s.hostStart, HostEndNs: s.hostEnd, VStart: s.vStart, VDone: s.vDone,
			Records: s.n, Deltas: make(map[string]int64, len(s.deltas)), IO: s.events}
		for _, d := range s.deltas {
			l.Deltas[ctrNames[d.c]] = d.d
		}
		if err := enc.Encode(&l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
