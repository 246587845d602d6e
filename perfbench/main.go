// Command perfbench is the repository's benchmark: it builds the PIO
// B-tree forest stack from flashsim up, drives it with closed-loop
// simulated threads on one of four workloads, checks every result against
// a reference model, and prints end-to-end metrics (or, with -trace 1,
// per-layer metrics from a traced run) as one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/kv"
)

func main() {
	name := flag.String("workload", "", "workload: point_read, insert_heavy, range_scan or drift_adapt")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "host seconds to keep repeating the measured run")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span trace")
	flag.Parse()
	// One goroutine drives the simulation; one processor keeps the
	// garbage collector on the same core as the work it taxes, which
	// makes host time repeatable on a shared machine.
	runtime.GOMAXPROCS(1)
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, filepath.Join(*out, fmt.Sprintf("trace-%s-%d.jsonl.gz", w.name, *seed)))
	} else {
		res, err = runUntraced(w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// inputs are everything generated from the seed, made once per process
// and handed to every repetition.
type inputs struct {
	recs     []kv.Record
	episodes []episode
}

// episode is the operation stream of one independent forest: warm-up,
// then the measured operations.
type episode struct{ warm, ops []op }

func makeInputs(w *workload, seed int64) *inputs {
	in := &inputs{recs: loadRecords(w.keys)}
	for e := 0; e < max(w.episodes, 1); e++ {
		g := newGenerator(w, seed+int64(e)*1_000_003)
		total := w.warmup + w.ops
		in.episodes = append(in.episodes, episode{
			warm: g.next(w.warmup, 0, total),
			ops:  g.next(w.ops, w.warmup, total),
		})
	}
	return in
}

// rep is one repetition of a run: every episode on a fresh stack, set up,
// measured and recovered, with the measurements pooled.
type rep struct {
	setupNs   int64
	p         *phase
	rec       recovery // summed over episodes
	episodes  int
	spans     []*span // the measured streams' spans (traced runs)
	attempted int64
	failed    int64
	err       error // first failed check
}

// runRep runs every episode of in; tr, when not nil, traces them.
func runRep(w *workload, in *inputs, tr *tracer, adapt, scanAll bool, tamper func(kv.Key, kv.Value) kv.Value) (*rep, error) {
	rp := &rep{p: &phase{}, episodes: len(in.episodes)}
	for _, ep := range in.episodes {
		if err := rp.runEpisode(w, in.recs, ep, tr, adapt, scanAll, tamper); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// runEpisode builds the stack, bulk-loads and warms it (the timed
// set-up), plays the measured stream, then commits, crashes and
// recovers; scanAll verifies every recovered record (see crashRecover).
func (rp *rep) runEpisode(w *workload, recs []kv.Record, ep episode, tr *tracer, adapt, scanAll bool, tamper func(kv.Key, kv.Value) kv.Value) error {
	runtime.GC()
	t0 := time.Now()
	st, err := buildStack(w)
	if err != nil {
		return err
	}
	r := &runner{w: w, st: st, m: newModel(w.keys), tr: tr, appliedO: w.opqPages, tamper: tamper}
	if tr != nil {
		tr.attach(st)
	}
	if w.adaptEvery > 0 && adapt {
		r.dparams = calibrate()
	}
	s := r.begin("core.Forest.BulkLoad", 0)
	err = st.fr.BulkLoad(recs)
	r.end(s, 0, len(recs))
	if err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	warm, at := r.run(0, ep.warm, false)
	rp.setupNs += int64(time.Since(t0))
	runtime.GC()
	first := 0
	if tr != nil {
		first = len(tr.spans)
	}
	p, at := r.run(at, ep.ops, adapt)
	if tr != nil {
		rp.spans = append(rp.spans, tr.spans[first:]...)
	}
	rp.p.add(p)
	rec, err := r.crashRecover(at, scanAll)
	if err != nil {
		r.fail(err)
	}
	rp.rec.simMs += rec.simMs
	rp.rec.replay += rec.replay
	rp.attempted += warm.ops + warm.syncs + p.ops + p.syncs + 1 // + the recovery check
	rp.failed += r.failed
	if rp.err == nil {
		rp.err = r.firstErr
	}
	return nil
}

// fingerprint is every simulation-determined output of a repetition: its
// vtime metrics and the layer counters moved by the measured streams.
// Two repetitions of one seed must agree on it byte for byte.
func (rp *rep) fingerprint() string {
	sim := simMetrics(rp)
	keys := make([]string, 0, len(sim))
	for k := range sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := []byte{}
	for _, k := range keys {
		b = fmt.Appendf(b, "%s=%v\n", k, sim[k])
	}
	for c, v := range rp.p.delta {
		b = fmt.Appendf(b, "%s=%d\n", ctrNames[c], v)
	}
	return fmt.Sprintf("%sreplay=%d live=%d ctx=%d\n", b, rp.rec.replay, rp.p.live, rp.p.ctxSwitches)
}

// result is what a run prints.
type result struct {
	w         *workload
	correct   bool
	attempted int64
	failed    int64
	metrics   []metricDef
	values    map[string]float64
	samples   [numKinds]int
	notes     []string
}

func (res *result) add(rp *rep) {
	res.attempted += rp.attempted
	res.failed += rp.failed
	if rp.err != nil {
		res.correct = false
		res.notes = append(res.notes, "check failed: "+rp.err.Error())
	}
}

// runUntraced repeats the measured run until the time budget is spent
// (at least three times, for the set-up median) and reports medians of
// the host metrics; the simulation metrics must repeat exactly.
func runUntraced(w *workload, seed int64, budget time.Duration) (*result, error) {
	in := makeInputs(w, seed)
	res := &result{w: w, correct: true, metrics: endToEnd}
	var reps []*rep
	start := time.Now()
	for len(reps) < 3 || time.Since(start) < budget {
		// Every repetition replays the same simulation (the fingerprint
		// check below proves it), so the full recovered-contents scan,
		// which costs as much as the measured stream, runs once.
		rp, err := runRep(w, in, nil, true, len(reps) == 0, nil)
		if err != nil {
			return nil, err
		}
		res.add(rp)
		if len(reps) > 0 && rp.fingerprint() != reps[0].fingerprint() {
			res.correct = false
			res.notes = append(res.notes, "repetitions of one seed disagree on the simulation")
		}
		reps = append(reps, rp)
	}
	var alloc, setup []float64
	for _, rp := range reps {
		alloc = append(alloc, float64(rp.p.allocBytes)/float64(rp.p.ops))
		setup = append(setup, float64(rp.setupNs)/1e9)
	}
	res.values = simMetrics(reps[0])
	res.values["host_kops"] = chunkedHostKops(reps)
	res.values["alloc_bytes_per_op"] = median(alloc)
	res.values["setup_s"] = median(setup)
	res.opError()
	for k := range res.samples {
		res.samples[k] = len(reps[0].p.lat[k])
	}
	v := res.values
	res.notes = append(res.notes, fmt.Sprintf("%d repetitions; p50 search %v us, insert %v us, scan %v us",
		len(reps), v["search_p50_us"], v["insert_p50_us"], v["scan_p50_us"]))
	return res, nil
}

// runTraced runs the seed untraced, then traced, and (for a workload with
// adaptation) once more with the adaptation thread off; it cross-checks
// the traced run against the untraced one and reports per-layer metrics.
func runTraced(w *workload, seed int64, tracePath string) (*result, error) {
	in := makeInputs(w, seed)
	res := &result{w: w, correct: true, metrics: perLayer}
	untraced, err := runRep(w, in, nil, true, true, nil)
	if err != nil {
		return nil, err
	}
	res.add(untraced)
	tr := newTracer()
	traced, err := runRep(w, in, tr, true, true, nil)
	if err != nil {
		return nil, err
	}
	res.add(traced)
	if a, b := untraced.fingerprint(), traced.fingerprint(); a != b {
		res.correct = false
		res.notes = append(res.notes, "traced run differs from untraced run:\n"+a+"---\n"+b)
	}
	var static *rep
	if w.adaptEvery > 0 {
		if static, err = runRep(w, in, nil, false, true, nil); err != nil {
			return nil, err
		}
		res.add(static)
	}
	res.values = layerMetrics(traced, untraced, static)
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.opError()
	for k := range res.samples {
		res.samples[k] = len(traced.p.lat[k])
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), tracePath))
	return res, nil
}

func (res *result) opError() {
	res.notes = append(res.notes, fmt.Sprintf("op_error_ratio %v (%d failed of %d attempted)",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted))
	if res.failed > 0 {
		res.correct = false
	}
}

// print writes a readable table, then the result as the last line.
func (res *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s: %d search, %d insert, %d scan samples per run\n",
		res.w.name, res.samples[opSearch], res.samples[opInsert], res.samples[opScan])
	for _, n := range res.notes {
		fmt.Fprintln(f, "#", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		v := res.values[m.name]
		fmt.Fprintf(f, "%-36s %16.6f %s\n", m.name, v, m.unit)
		metrics[m.name] = value{v, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	fmt.Fprintln(f, string(line))
}

// chunkedHostKops estimates host throughput robustly against bursts of
// interference from other work on the machine: every repetition runs the
// same operations in the same order, so chunk c of one repetition is the
// same work as chunk c of another; each chunk is charged the median of
// its host times across repetitions.
func chunkedHostKops(reps []*rep) float64 {
	var total float64
	for c := range reps[0].p.chunks {
		xs := make([]float64, len(reps))
		for i, rp := range reps {
			xs[i] = float64(rp.p.chunks[c])
		}
		total += median(xs)
	}
	n := len(reps[0].p.chunks) * hostChunk
	return float64(n) / (total / 1e9) / 1e3
}
