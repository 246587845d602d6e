package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/kv"
	"repro/internal/vtime"
)

// runner drives one forest with closed-loop simulated threads: each
// thread sends its next operation only once the previous one returned.
// Every result is checked against the reference model as it arrives.
type runner struct {
	w  *workload
	st *stack
	m  *model
	tr *tracer // nil: tracing off

	// tamper, when set, rewrites every search result before it is checked
	// (the benchmark's own tests use it to prove a wrong answer counts).
	tamper func(k kv.Key, v kv.Value) kv.Value

	opID     int64
	failed   int64
	firstErr error

	// Adaptation state (drift_adapt).
	dparams                        *costmodel.DeviceParams
	appliedO                       int
	opsSinceTune, insertsSinceTune int64
}

// phase is what one or more runs of an operation stream measured.
type phase struct {
	ops         int64 // client operations (searches, inserts, scans)
	syncs       int64
	failed      int64
	lat         [numKinds][]vtime.Ticks
	makespan    vtime.Ticks // until the last worker finished
	hostNs      int64       // host time spent inside the program's calls
	wallNs      int64       // host wall time of the whole stream
	chunks      []int64     // hostNs of each run of hostChunk client operations
	chunkStart  int64       // hostNs when the open chunk began
	allocBytes  uint64
	ctxSwitches int64    // vtime scheduler context switches
	delta       counters // layer counters moved by the stream
	pages, live int64    // page-file pages and live keys when it ended
}

// hostChunk is the operation count of one host-time sample.
const hostChunk = 2000

// add pools q into p.
func (p *phase) add(q *phase) {
	p.ops += q.ops
	p.syncs += q.syncs
	p.failed += q.failed
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
	}
	p.makespan += q.makespan
	p.hostNs += q.hostNs
	p.wallNs += q.wallNs
	p.chunks = append(p.chunks, q.chunks...)
	p.allocBytes += q.allocBytes
	p.ctxSwitches += q.ctxSwitches
	for c := range p.delta {
		p.delta[c] += q.delta[c]
	}
	p.pages += q.pages
	p.live += q.live
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// begin/end wrap a call in a span when tracing is on.
func (r *runner) begin(name string, at vtime.Ticks) *span {
	if r.tr == nil {
		return nil
	}
	return r.tr.begin(name, r.opID, at)
}

func (r *runner) end(s *span, done vtime.Ticks, n int) {
	if s != nil {
		r.tr.end(s, done, n)
	}
}

// run plays ops from base on the closed-loop client threads (plus the
// adaptation thread when adapt is set) and measures the stream. It
// returns the measurement and the vtime the workers finished at.
func (r *runner) run(base vtime.Ticks, ops []op, adapt bool) (*phase, vtime.Ticks) {
	p := &phase{}
	for k := range p.lat {
		p.lat[k] = make([]vtime.Ticks, 0, len(ops))
	}
	next := 0
	active := threads
	ths := make([]*vtime.Thread, 0, threads+1)
	for i := 0; i < threads; i++ {
		th := &vtime.Thread{ID: i, Step: func(t *vtime.Thread) bool {
			if next >= len(ops) {
				active--
				return false
			}
			o := ops[next]
			next++
			r.exec(t, o, p)
			return true
		}}
		th.Clock.AdvanceTo(base)
		ths = append(ths, th)
	}
	if adapt && r.w.adaptEvery > 0 {
		th := &vtime.Thread{ID: threads, Step: func(t *vtime.Thread) bool {
			if active == 0 {
				return false
			}
			now := t.Clock.Now() + r.w.adaptEvery
			t.Clock.AdvanceTo(vtime.Max(now, r.adaptTick(now, p)))
			return true
		}}
		th.Clock.AdvanceTo(base)
		ths = append(ths, th)
	}
	s := vtime.NewScheduler(ctxSwitch, ths...)
	failedBefore := r.failed
	var ms0, ms1 runtime.MemStats
	before := r.st.read()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	s.Run()
	p.wallNs = int64(time.Since(t0))
	runtime.ReadMemStats(&ms1)
	after := r.st.read()
	p.delta = after.sub(before)
	p.pages, p.live = after[cPages], r.m.count
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.ctxSwitches = s.TotalCtxSwitches()
	// The stream ends when the workers end: the adaptation thread parks
	// one idle poll past the last operation.
	end := base
	for _, t := range ths[:threads] {
		end = vtime.Max(end, t.Clock.Now())
	}
	p.makespan = end - base
	p.failed = r.failed - failedBefore
	return p, end
}

// exec performs one operation on thread t and checks its result. Host
// time is charged only across the forest call itself, so the checking
// the benchmark does is not part of the program's host cost.
func (r *runner) exec(t *vtime.Thread, o op, p *phase) {
	r.opID++
	fr := r.st.fr
	start := t.Clock.Now()
	done := start
	var err error
	s := r.begin(callNames[o.kind], start)
	t0 := time.Now()
	switch o.kind {
	case opSearch:
		var v kv.Value
		var found bool
		v, found, done, err = fr.Search(start, o.key)
		p.hostNs += int64(time.Since(t0))
		r.end(s, done, 0)
		if err == nil {
			if r.tamper != nil {
				v = r.tamper(o.key, v)
			}
			err = r.m.checkSearch(o.key, v, found)
		}
	case opInsert:
		done, err = fr.Insert(start, kv.Record{Key: o.key, Value: valueOf(o.key)})
		p.hostNs += int64(time.Since(t0))
		r.end(s, done, 0)
		if err == nil {
			r.m.ack(o.key)
			r.insertsSinceTune++
		}
	case opScan:
		var recs []kv.Record
		recs, done, err = fr.RangeSearch(start, o.key, o.hi)
		p.hostNs += int64(time.Since(t0))
		r.end(s, done, len(recs))
		if err == nil {
			err = r.m.checkRange(o.key, o.hi, recs)
		}
	case opSync:
		done, err = fr.Sync(start)
		p.hostNs += int64(time.Since(t0))
		r.end(s, done, 0)
	}
	if o.kind == opSync {
		p.syncs++
	} else {
		p.ops++
		if p.ops%hostChunk == 0 {
			p.chunks = append(p.chunks, p.hostNs-p.chunkStart)
			p.chunkStart = p.hostNs
		}
		r.opsSinceTune++
		p.lat[o.kind] = append(p.lat[o.kind], done-start)
	}
	if err != nil {
		r.fail(fmt.Errorf("%s at op %d: %w", kindNames[o.kind], r.opID, err))
	}
	t.Clock.AdvanceTo(done)
}

// callNames are the span names of the forest calls each op kind makes.
var callNames = [...]string{"core.Forest.Search", "core.Forest.Insert", "core.Forest.RangeSearch", "core.Forest.Sync"}

// adaptDrainBudget bounds one poll's migration drain, as the scenario
// suite's adaptation loop does; a longer move resumes on the next poll.
const adaptDrainBudget = 20 * vtime.Millisecond

// adaptTick is one poll of the adaptation thread: AutoRebalance on the
// shard load deltas, then the eq.-(10) tuner on the observed insert
// ratio, applying a changed OPQ budget. Returns when its work finished.
func (r *runner) adaptTick(now vtime.Ticks, p *phase) vtime.Ticks {
	r.opID++
	fr := r.st.fr
	tick := r.begin("perfbench.adaptTick", now)
	var done vtime.Ticks
	var err error
	s := r.begin("core.Forest.AutoRebalance", now)
	t0 := time.Now()
	_, _, _, done, err = fr.AutoRebalance(now, core.RebalancePolicy{DrainBudget: adaptDrainBudget})
	p.hostNs += int64(time.Since(t0))
	r.end(s, done, 0)
	if err != nil {
		r.fail(fmt.Errorf("AutoRebalance: %w", err))
	}
	now = vtime.Max(now, done)
	if r.opsSinceTune >= 256 {
		ri := float64(r.insertsSinceTune) / float64(r.opsSinceTune)
		r.opsSinceTune, r.insertsSinceTune = 0, 0
		var res costmodel.ForestTuneResult
		s = r.begin("costmodel.TuneForest", now)
		t0 = time.Now()
		res, err = costmodel.TuneForest(r.tuneParams(ri), r.dparams, bcnt, 16, r.maxO(), shards)
		p.hostNs += int64(time.Since(t0))
		r.end(s, now, 0)
		if err == nil && res.GlobalO != r.appliedO {
			s = r.begin("core.Forest.ApplyOPQBudget", now)
			t0 = time.Now()
			done, _, _, err = fr.ApplyOPQBudget(now, res.GlobalO)
			p.hostNs += int64(time.Since(t0))
			r.end(s, done, 0)
			if err != nil {
				r.fail(fmt.Errorf("ApplyOPQBudget: %w", err))
			} else {
				r.appliedO = res.GlobalO
				now = vtime.Max(now, done)
			}
		}
	}
	r.end(tick, now, 0)
	return now
}

func (r *runner) memPages() int { return (r.w.bufferBytes + r.w.opqPages*pageSize) / pageSize }

func (r *runner) maxO() int { return max(r.memPages()-1, shards) }

func (r *runner) tuneParams(insertRatio float64) costmodel.TreeParams {
	return costmodel.TreeParams{
		N:                 float64(r.m.count),
		F:                 float64(pageSize / kv.RecordSize),
		U:                 0.7,
		Ri:                insertRatio,
		Rs:                1 - insertRatio,
		M:                 float64(r.memPages()),
		OPQEntriesPerPage: float64(pageSize / kv.EntrySize),
	}
}

// recovery is what the end-of-run commit point, crash and restart cost.
type recovery struct {
	simMs  float64 // vtime of Recover
	replay int64   // WAL records replayed or skipped
}

// crashRecover makes every acknowledged insert durable (Sync), crashes
// the forest, recovers it, and checks the recovered forest: its key count
// and invariants and, with scanAll, that it holds exactly the reference
// model — every acknowledged key with its value, and no key that was
// never inserted.
func (r *runner) crashRecover(at vtime.Ticks, scanAll bool) (recovery, error) {
	var rc recovery
	fr := r.st.fr
	r.opID++
	s := r.begin("core.Forest.Sync", at)
	synced, err := fr.Sync(at)
	r.end(s, synced, 0)
	if err != nil {
		return rc, fmt.Errorf("final sync: %w", err)
	}
	s = r.begin("core.Forest.Crash", synced)
	fr.Crash()
	r.end(s, synced, 0)
	s = r.begin("core.Forest.Recover", synced)
	rep, done, err := fr.Recover(synced)
	r.end(s, done, 0)
	if err != nil {
		return rc, fmt.Errorf("recover: %w", err)
	}
	rc.simMs = (done - synced).Millis()
	rc.replay = int64(rep.Total.RedoneEntries + rep.Total.SkippedEntries)
	if got := fr.Count(); got != r.m.count {
		return rc, fmt.Errorf("recovered forest holds %d keys, reference %d", got, r.m.count)
	}
	if err := fr.CheckInvariants(); err != nil {
		return rc, fmt.Errorf("recovered forest: %w", err)
	}
	if !scanAll {
		return rc, nil
	}
	// Verify the whole key domain window by window.
	const window = 4096 // strides per verification scan
	var checked int64
	for lo := 0; lo < r.w.keys; lo += window {
		klo, khi := kv.Key(lo)*keyStride, kv.Key(min(lo+window, r.w.keys))*keyStride
		recs, _, err := fr.RangeSearch(done, klo, khi)
		if err != nil {
			return rc, fmt.Errorf("verify scan: %w", err)
		}
		if err := r.m.checkRange(klo, khi, recs); err != nil {
			return rc, fmt.Errorf("after recovery: %w", err)
		}
		checked += int64(len(recs))
	}
	if checked != r.m.count {
		return rc, fmt.Errorf("verified %d records, reference %d", checked, r.m.count)
	}
	return rc, nil
}
