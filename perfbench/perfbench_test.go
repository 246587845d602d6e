package main

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kv"
)

// small is w shrunk so a test runs it in well under a second.
func small(w *workload) *workload {
	s := *w
	s.keys, s.ops, s.warmup = 20_000, 4_000, 500
	s.bufferBytes = min(s.bufferBytes, 64<<10)
	if s.syncEvery > 0 {
		s.syncEvery = 500
	}
	return &s
}

func runSmall(t *testing.T, w *workload, seed int64, traced bool, tamper func(kv.Key, kv.Value) kv.Value) *rep {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rp, err := runRep(w, makeInputs(w, seed), tr, true, true, tamper)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// The simulation metrics and layer counters are a function of the seed.
func TestSameSeedSameSimulation(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			a, b := runSmall(t, w, 7, false, nil), runSmall(t, w, 7, false, nil)
			if a.err != nil || a.failed != 0 {
				t.Fatalf("run failed %d checks: %v", a.failed, a.err)
			}
			if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
				t.Fatalf("same seed, different simulation:\n%s---\n%s", fa, fb)
			}
			if c := runSmall(t, w, 8, false, nil); c.fingerprint() == a.fingerprint() {
				t.Fatalf("seeds 7 and 8 gave identical runs")
			}
		})
	}
}

// Tracing observes without perturbing: the traced run's simulation is
// byte-identical to the untraced run's.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			a, b := runSmall(t, w, 3, false, nil), runSmall(t, w, 3, true, nil)
			if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
				t.Fatalf("tracing perturbed the simulation:\n%s---\n%s", fa, fb)
			}
			if len(b.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// The trace file holds one JSON span per line.
func TestTraceFileRoundTrips(t *testing.T) {
	w := small(workloads[1])
	tr := newTracer()
	if _, err := runRep(w, makeInputs(w, 1), tr, true, false, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(zr)
	n, events := 0, 0
	for ; ; n++ {
		var l spanLine
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("span %d: %v", n, err)
		}
		if l.ID != int64(n+1) || l.Name == "" {
			t.Fatalf("span %d reads %+v", n, l)
		}
		events += len(l.IO)
	}
	if n != len(tr.spans) || events == 0 {
		t.Fatalf("trace holds %d spans with %d I/O events, tracer %d spans", n, events, len(tr.spans))
	}
}

// Every search names a live key: a loaded key, or a fresh key inserted
// earlier in the same stream.
func TestSearchesAddressLiveKeys(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		in := makeInputs(w, 5)
		for _, ep := range in.episodes {
			inserted := map[kv.Key]bool{}
			fresh := 0
			for _, o := range append(ep.warm, ep.ops...) {
				switch {
				case o.kind == opInsert:
					inserted[o.key] = true
				case o.kind == opSearch && o.key%keyStride != 8:
					if !inserted[o.key] {
						t.Fatalf("%s: search of key %d before its insert", w.name, o.key)
					}
					fresh++
				}
			}
			if fresh == 0 {
				t.Errorf("%s: no search named a fresh key", w.name)
			}
		}
	}
}

// A wrong search answer is caught and counted as a failed operation.
func TestCorruptSearchResultFails(t *testing.T) {
	w := small(workloads[0])
	n := 0
	rp := runSmall(t, w, 1, false, func(k kv.Key, v kv.Value) kv.Value {
		n++
		if n%100 == 0 {
			return v + 1
		}
		return v
	})
	if rp.failed == 0 || rp.err == nil {
		t.Fatalf("corrupted results went unnoticed: failed=%d", rp.failed)
	}
	res := &result{w: w, correct: true}
	res.add(rp)
	res.opError()
	if res.correct || ratio(float64(res.failed), float64(res.attempted)) <= 0 {
		t.Fatalf("op error ratio not raised: correct=%v failed=%d attempted=%d", res.correct, res.failed, res.attempted)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
