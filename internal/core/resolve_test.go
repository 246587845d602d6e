package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/kv"
	"repro/internal/vtime"
)

// liveRecordsOracle is the map-based log resolver the read paths used
// before the sort-merge one: it replays the tail in arrival order onto the
// base region and sorts the survivors. It stays here as the reference the
// in-place probe and resolveLog are checked against.
func liveRecordsOracle(entries []kv.Entry, sorted int) []kv.Record {
	m := make(map[kv.Key]kv.Value, len(entries))
	inOrder := make(map[kv.Key]bool, len(entries))
	order := make([]kv.Key, 0, len(entries))
	note := func(k kv.Key) {
		if !inOrder[k] {
			inOrder[k] = true
			order = append(order, k)
		}
	}
	for _, e := range entries[:sorted] {
		note(e.Rec.Key)
		m[e.Rec.Key] = e.Rec.Value
	}
	for _, e := range entries[sorted:] {
		switch e.Op {
		case kv.OpInsert, kv.OpUpdate:
			note(e.Rec.Key)
			m[e.Rec.Key] = e.Rec.Value
		case kv.OpDelete:
			delete(m, e.Rec.Key)
		}
	}
	out := make([]kv.Record, 0, len(m))
	for _, k := range order {
		if v, ok := m[k]; ok {
			out = append(out, kv.Record{Key: k, Value: v})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookupOracle returns the newest entry for k by a linear newest-first
// scan of the whole log.
func lookupOracle(entries []kv.Entry, k kv.Key) (kv.Entry, bool) {
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Rec.Key == k {
			return entries[i], true
		}
	}
	return kv.Entry{}, false
}

// overlayOracle replays queued entries (arrival order) onto key-sorted
// records with maps, as the range search's OPQ overlay used to.
func overlayOracle(recs []kv.Record, overlay []kv.Entry) []kv.Record {
	state := make(map[kv.Key]kv.Value, len(recs))
	for _, r := range recs {
		state[r.Key] = r.Value
	}
	for _, e := range overlay {
		switch e.Op {
		case kv.OpDelete:
			delete(state, e.Rec.Key)
		case kv.OpInsert, kv.OpUpdate:
			state[e.Rec.Key] = e.Rec.Value
		}
	}
	out := make([]kv.Record, 0, len(state))
	for k, v := range state {
		out = append(out, kv.Record{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func inRange(recs []kv.Record, lo, hi kv.Key) []kv.Record {
	out := []kv.Record{}
	for _, r := range recs {
		if r.Key >= lo && r.Key < hi {
			out = append(out, r)
		}
	}
	return out
}

// resolveKeys is the key domain of the generated leaf logs: 198 spread
// keys plus the two largest keys, math.MaxUint64 included.
func resolveKeys() []kv.Key {
	keys := make([]kv.Key, 0, 200)
	for i := 0; i < 198; i++ {
		keys = append(keys, kv.Key(i*5+1))
	}
	return append(keys, math.MaxUint64-1, math.MaxUint64)
}

// Leaf log shapes.
const (
	shapeEmpty    = iota // no entries at all
	shapePartial         // some segments full, the last one partial
	shapeFull            // every slot of every segment used
	shapeBaseOnly        // a freshly shrunk leaf: no tail
	numShapes
)

// genLeafLog builds a leaf of segs segments of ps-byte pages: a base
// region of distinct sorted inserts followed by a tail mixing inserts of
// fresh keys, updates, deletes, delete-then-reinsert pairs, updates of
// absent keys and random operations on random keys.
func genLeafLog(rng *rand.Rand, ps, segs, shape int) *leafNode {
	keys := resolveKeys()
	capacity := leafCap(ps, segs)
	var n int
	switch shape {
	case shapePartial:
		n = 1 + rng.Intn(capacity-1)
	case shapeFull:
		n = capacity
	case shapeBaseOnly:
		n = 1 + rng.Intn(capacity)
	}
	nbase := n
	if shape != shapeBaseOnly {
		nbase = rng.Intn(n + 1)
	}
	l := &leafNode{id: 1, segs: segs}
	var base []kv.Key
	for _, i := range rng.Perm(len(keys))[:nbase] {
		base = append(base, keys[i])
	}
	slices.Sort(base)
	live := map[kv.Key]bool{}
	for _, k := range base {
		l.entries = append(l.entries, kv.Entry{Rec: kv.Record{Key: k, Value: rng.Uint64()}, Op: kv.OpInsert})
		live[k] = true
	}
	l.sorted = len(l.entries)
	pick := func(wantLive bool) kv.Key {
		for try := 0; try < 20; try++ {
			if k := keys[rng.Intn(len(keys))]; live[k] == wantLive {
				return k
			}
		}
		return keys[rng.Intn(len(keys))]
	}
	add := func(op kv.Op, k kv.Key) {
		l.entries = append(l.entries, kv.Entry{Rec: kv.Record{Key: k, Value: rng.Uint64()}, Op: op})
		live[k] = op != kv.OpDelete
	}
	for len(l.entries) < n {
		switch rng.Intn(6) {
		case 0:
			add(kv.OpInsert, pick(false))
		case 1:
			add(kv.OpUpdate, pick(true))
		case 2:
			add(kv.OpDelete, pick(true))
		case 3:
			k := pick(true)
			add(kv.OpDelete, k)
			if len(l.entries) < n {
				add(kv.OpInsert, k)
			}
		case 4:
			add(kv.OpUpdate, pick(false))
		default:
			add([]kv.Op{kv.OpInsert, kv.OpUpdate, kv.OpDelete}[rng.Intn(3)], keys[rng.Intn(len(keys))])
		}
	}
	return l
}

// checkLeafResolve encodes l and checks the in-place probe, the range
// resolver (with and without an OPQ overlay) and shrink against the
// oracles, on the full view and on the LSMap-bounded partial view.
func checkLeafResolve(t *testing.T, rng *rand.Rand, l *leafNode, ps int) {
	t.Helper()
	buf := make([]byte, l.segs*ps)
	if err := l.encodeAll(buf, ps); err != nil {
		t.Fatal(err)
	}
	want := liveRecordsOracle(l.entries, l.sorted)
	probes := append(resolveKeys(), 0, 2, math.MaxUint64-2)

	// Ranges: random ones, one cut through the middle of the tail's keys,
	// and the widest expressible one.
	type span struct{ lo, hi kv.Key }
	var spans []span
	for i := 0; i < 6; i++ {
		a, b := probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]
		if a > b {
			a, b = b, a
		}
		if a < b {
			spans = append(spans, span{a, b})
		}
	}
	if tail := l.entries[l.sorted:]; len(tail) >= 3 {
		tk := make([]kv.Key, len(tail))
		for i, e := range tail {
			tk[i] = e.Rec.Key
		}
		slices.Sort(tk)
		if lo, hi := tk[len(tk)/3], tk[2*len(tk)/3]; lo < hi {
			spans = append(spans, span{lo, hi})
		}
	}
	spans = append(spans, span{0, math.MaxUint64})

	for _, n := range []int{l.segs, l.lastSeg(ps) + 1} {
		v, err := viewLeaf(l.id, buf[:n*ps], ps)
		if err != nil {
			t.Fatal(err)
		}
		if v.count != len(l.entries) || v.sorted != l.sorted {
			t.Fatalf("%d-segment view: count %d sorted %d, want %d %d", n, v.count, v.sorted, len(l.entries), l.sorted)
		}
		for _, k := range probes {
			got, ok := v.lookup(k)
			exp, expOK := lookupOracle(l.entries, k)
			if ok != expOK || got != exp {
				t.Fatalf("%d-segment view: lookup(%d) = %+v %v, want %+v %v", n, k, got, ok, exp, expOK)
			}
		}
		if got := v.liveRecords(); !slices.Equal(got, want) {
			t.Fatalf("%d-segment view: live records\n got %v\nwant %v", n, got, want)
		}
		for _, sp := range spans {
			base, log := v.scan(nil, nil, sp.lo, sp.hi-1)
			got := resolveLog(nil, base, log)
			exp := inRange(want, sp.lo, sp.hi)
			if !slices.Equal(got, exp) {
				t.Fatalf("%d-segment view: range [%d,%d)\n got %v\nwant %v", n, sp.lo, sp.hi, got, exp)
			}
			// Queued operations overlay the leaf, newest winning.
			var opq []kv.Entry
			for i := rng.Intn(12); i > 0; i-- {
				k := probes[rng.Intn(len(probes))]
				if k >= sp.lo && k < sp.hi {
					opq = append(opq, kv.Entry{Rec: kv.Record{Key: k, Value: rng.Uint64()}, Op: []kv.Op{kv.OpInsert, kv.OpUpdate, kv.OpDelete}[rng.Intn(3)]})
				}
			}
			base, log = v.scan(nil, nil, sp.lo, sp.hi-1)
			got = resolveLog(nil, base, append(log, opq...))
			exp = overlayOracle(exp, opq)
			if !slices.Equal(got, exp) {
				t.Fatalf("%d-segment view: range [%d,%d) with overlay %v\n got %v\nwant %v", n, sp.lo, sp.hi, opq, got, exp)
			}
		}
	}

	shrunk := &leafNode{id: l.id, segs: l.segs, entries: slices.Clone(l.entries), sorted: l.sorted}
	shrunk.shrink()
	if shrunk.sorted != len(shrunk.entries) || len(shrunk.entries) != len(want) {
		t.Fatalf("shrink: sorted %d of %d entries, want %d", shrunk.sorted, len(shrunk.entries), len(want))
	}
	for i, e := range shrunk.entries {
		if e.Op != kv.OpInsert || e.Rec != want[i] {
			t.Fatalf("shrink entry %d = %+v, want insert %v", i, e, want[i])
		}
	}
}

// FuzzLeafResolve checks the in-place leaf probe and the sort-merge log
// resolver against the map-based oracle over generated leaf logs: empty,
// partial and full L-segment leaves, freshly shrunk ones, key
// math.MaxUint64, and ranges cut through the middle of the tail.
func FuzzLeafResolve(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(seed%8), uint8(seed%numShapes))
	}
	f.Fuzz(func(t *testing.T, seed int64, segs, shape uint8) {
		const ps = 256 // 14 entries per segment: many segments, few entries
		rng := rand.New(rand.NewSource(seed))
		l := genLeafLog(rng, ps, 1+int(segs%8), int(shape%numShapes))
		checkLeafResolve(t, rng, l, ps)
	})
}

func TestMergeRunsIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		runs := make([][]kv.Record, rng.Intn(6))
		var all []kv.Record
		for i := range runs {
			for j := rng.Intn(20); j > 0; j-- {
				runs[i] = append(runs[i], kv.Record{Key: kv.Key(rng.Intn(30)), Value: kv.Value(i)})
			}
			kv.SortRecords(runs[i])
			all = append(all, runs[i]...)
		}
		kv.SortRecords(all)
		if got := mergeRuns(runs); !slices.Equal(got, all) {
			t.Fatalf("trial %d:\n got %v\nwant %v", trial, got, all)
		}
	}
}

// forestModel drives a forest and a reference map with the same mixed
// operations (inserts of fresh keys, updates and deletes of live keys,
// delete-then-reinsert pairs) and checks RangeSearch against the model.
type forestModel struct {
	t     *testing.T
	fr    *Forest
	rng   *rand.Rand
	model map[kv.Key]kv.Value
	at    vtime.Ticks
	fresh kv.Key
}

func (m *forestModel) liveKey() (kv.Key, bool) {
	for try := 0; m.fresh > 0 && try < 50; try++ {
		k := kv.Key(1 + m.rng.Intn(int(m.fresh)))
		if _, ok := m.model[k]; ok {
			return k, true
		}
	}
	return 0, false
}

func (m *forestModel) ops(n int) {
	m.t.Helper()
	for i := 0; i < n; i++ {
		var err error
		k, ok := m.liveKey()
		switch r := m.rng.Intn(5); {
		case r == 0 || !ok:
			m.fresh++
			k = m.fresh
			v := kv.Value(m.rng.Uint64())
			m.at, err = m.fr.Insert(m.at, kv.Record{Key: k, Value: v})
			m.model[k] = v
		case r == 1 || r == 2:
			v := kv.Value(m.rng.Uint64())
			m.at, err = m.fr.Update(m.at, kv.Record{Key: k, Value: v})
			m.model[k] = v
		case r == 3:
			m.at, err = m.fr.Delete(m.at, k)
			delete(m.model, k)
		default:
			if m.at, err = m.fr.Delete(m.at, k); err == nil {
				v := kv.Value(m.rng.Uint64())
				m.at, err = m.fr.Insert(m.at, kv.Record{Key: k, Value: v})
				m.model[k] = v
			}
		}
		if err != nil {
			m.t.Fatal(err)
		}
	}
}

func (m *forestModel) checkRanges() {
	m.t.Helper()
	var all []kv.Record
	for k, v := range m.model {
		all = append(all, kv.Record{Key: k, Value: v})
	}
	kv.SortRecords(all)
	spans := [][2]kv.Key{{0, math.MaxUint64}}
	for i := 0; i < 20; i++ {
		lo := kv.Key(m.rng.Intn(int(m.fresh) + 2))
		spans = append(spans, [2]kv.Key{lo, lo + 1 + kv.Key(m.rng.Intn(120))})
	}
	for _, sp := range spans {
		got, at, err := m.fr.RangeSearch(m.at, sp[0], sp[1])
		if err != nil {
			m.t.Fatal(err)
		}
		m.at = at
		if want := inRange(all, sp[0], sp[1]); !slices.Equal(got, want) {
			m.t.Fatalf("range [%d,%d):\n got %v\nwant %v", sp[0], sp[1], got, want)
		}
	}
}

// TestForestRangeSearchModel checks Forest.RangeSearch, which k-way
// merges per-shard runs, against a reference map on a hash-partitioned
// forest (every range spans every shard) and on a forest stopped in the
// middle of a migration (moved keys on the destination, the rest still
// on the source), both with operations still queued in the OPQs.
func TestForestRangeSearchModel(t *testing.T) {
	t.Run("hash", func(t *testing.T) {
		m := &forestModel{t: t, fr: newTestForest(t, 4, forestCfg(), nil), rng: rand.New(rand.NewSource(7)), model: map[kv.Key]kv.Value{}}
		m.ops(3000)
		if m.fr.Pending() == 0 {
			t.Fatal("no queued operations to overlay")
		}
		m.checkRanges()
		if err := m.fr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mid-migration", func(t *testing.T) {
		cfg := rebalForestCfg()
		cfg.Partitioner = HashPartitioner{N: crashShards}
		fr, _, _ := newCrashForest(t, cfg)
		m := &forestModel{t: t, fr: fr, rng: rand.New(rand.NewSource(11)), model: map[kv.Key]kv.Value{}}
		m.ops(400)
		var err error
		if m.at, err = fr.Checkpoint(m.at); err != nil {
			t.Fatal(err)
		}
		mig, at, err := fr.StartMigration(m.at, 1, m.fresh/2, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, m.at, err = mig.Step(at); err != nil {
			t.Fatal(err)
		}
		if mig.Done() {
			t.Fatal("migration finished in one chunk")
		}
		m.ops(150)
		if fr.Pending() == 0 {
			t.Fatal("no queued operations to overlay")
		}
		m.checkRanges()
		if m.at, err = mig.Drain(m.at); err != nil {
			t.Fatal(err)
		}
		m.checkRanges()
		if err := fr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
