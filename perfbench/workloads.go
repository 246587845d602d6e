package main

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/kv"
	"repro/internal/vtime"
)

// keyDist names how a workload picks the key an operation addresses.
type keyDist int

const (
	// distUniform picks every loaded key with equal probability.
	distUniform keyDist = iota
	// distZipf ranks keys by a zipf law and scatters the ranks over the
	// whole domain, so the hot set is many keys on many leaves.
	distZipf
	// distDrift sends most operations to a dominant tenant whose zipf
	// ranks are scattered over one contiguous window, the hotspot, which
	// moves across the key domain phase by phase; the rest are uniform.
	distDrift
)

// workload is one benchmark input: the shape of the forest it runs on and
// the operation mix the closed-loop threads send. Everything a run does
// follows from a workload and a seed.
type workload struct {
	name string

	// Shape.
	keys        int // bulk-loaded keys
	leafSegs    int // L, leaf size in pages
	opqPages    int // O, the initial global operation-queue budget in pages
	bufferBytes int // global buffer-pool budget

	// Mix: the search and insert shares; the rest are range scans of
	// scanMin..scanMax keys.
	ops, warmup    int // measured and warm-up operation counts per episode
	search, insert float64
	scanMin        int
	scanMax        int
	dist           keyDist

	// syncEvery inserts a Forest.Sync commit point after that many
	// operations (0: none until the end-of-run Sync).
	syncEvery int
	// episodes is the number of independent forests, each with its own
	// seeded stream, a repetition measures and pools (0 means one).
	episodes int
	// adaptEvery is the vtime poll interval of the adaptation thread
	// (AutoRebalance, then TuneForest -> ApplyOPQBudget); 0 turns
	// adaptation off.
	adaptEvery vtime.Ticks
}

// The shape every workload shares.
const (
	shards  = 4
	threads = 16  // closed-loop simulated client threads
	zipfS   = 1.1 // zipf exponent of the skewed workloads
	phases  = 4   // positions the distDrift hotspot visits
)

// workloads are the benchmark's inputs, in the order they are documented.
var workloads = []*workload{
	// The search path does nearly all the work; flush and WAL are nearly
	// idle, and the buffer pool holds the zipf hot set. The smallest OPQ
	// (one page per shard) makes the searches stalled behind group
	// flushes about 0.2% of all searches, so p99.9 sits inside the stall
	// population rather than on its edge, where it would jump between a
	// device read (hundreds of µs) and a flush stall (tens of ms) from
	// seed to seed; those tails are therefore flush-bound, and the
	// trimmed search mean is what isolates the search path. Zipf inserts keep splitting the hottest leaves, and
	// where those splits fall sets how many records every hot search
	// decodes for the rest of a stream; a repetition pools four episodes
	// so that host cost and allocation per op do not hinge on one forest's
	// split points.
	{
		name:        "point_read",
		keys:        1_000_000,
		leafSegs:    1,
		opqPages:    4,
		bufferBytes: 8 << 20,
		ops:         120_000,
		warmup:      60_000,
		search:      0.95,
		insert:      0.05,
		dist:        distZipf,
		episodes:    4,
	},
	// OPQ batching, group flush, gang writes and WAL group commit do the
	// work; the data is far larger than the buffer pool.
	{
		name:        "insert_heavy",
		keys:        1_000_000,
		leafSegs:    4,
		opqPages:    8,
		bufferBytes: 32 << 10,
		ops:         60_000,
		warmup:      10_000,
		search:      0.20,
		insert:      0.80,
		dist:        distUniform,
		syncEvery:   2_000,
	},
	// Multi-leaf reads, OPQ merge and result sort: the read layers used
	// differently from point_read.
	{
		name:        "range_scan",
		keys:        1_000_000,
		leafSegs:    2,
		opqPages:    8,
		bufferBytes: 1 << 20,
		ops:         55_000,
		warmup:      5_000,
		search:      0.30,
		insert:      0.20,
		scanMin:     200,
		scanMax:     400,
		dist:        distUniform,
	},
	// The only workload with adaptation on: migration, routing and retune
	// do work here and nowhere else. Its adaptation decisions are discrete
	// events whose count varies with the seed, so a repetition pools eight
	// independent episodes to keep the tails steady.
	{
		name:        "drift_adapt",
		keys:        250_000,
		leafSegs:    4,
		opqPages:    8,
		bufferBytes: 512 << 10,
		ops:         48_000,
		warmup:      4_000,
		search:      0.50,
		insert:      0.50,
		dist:        distDrift,
		episodes:    8,
		adaptEvery:  20 * vtime.Millisecond,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Key layout. Loaded key g sits at g*keyStride+8; the other offsets of
// each stride are free slots for fresh inserts, so a fresh key never
// collides with a loaded one and the reference model stays a bitmap.
const keyStride = 16

// freshOffsets are the in-stride offsets fresh inserts take, in order.
var freshOffsets = [...]uint64{9, 10, 11, 12, 13, 14, 15, 1, 2, 3, 4, 5, 6, 7}

func loadedKey(g int) kv.Key { return kv.Key(g)*keyStride + 8 }

// valueOf is the value every key carries: checkable without a stored copy.
func valueOf(k kv.Key) kv.Value {
	z := k + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// opKind is the call an operation makes into the forest.
type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opScan
	opSync
	numKinds = opSync // kinds with a latency sample: search, insert, scan
)

var kindNames = [...]string{"search", "insert", "scan", "sync"}

// op is one generated operation. A scan covers [key, hi).
type op struct {
	kind opKind
	key  kv.Key
	hi   kv.Key
}

// generator produces a workload's operations from its seed. It tracks
// the fresh keys it has handed out so every insert is of a new key.
type generator struct {
	w       *workload
	rng     *rand.Rand
	zipf    *rand.Zipf
	scatter uint64   // multiplier coprime with the zipf domain: rank -> slot
	used    []uint16 // fresh-slot bitmap per stride, generation side
	window  int      // distDrift hotspot width in strides
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{
		w:    w,
		rng:  rand.New(rand.NewSource(seed)),
		used: make([]uint16, w.keys),
	}
	switch w.dist {
	case distZipf:
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(w.keys-1))
	case distDrift:
		g.window = w.keys / shards
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(g.window-1))
	}
	// The scatter multiplier must be coprime with the zipf domain so
	// that ranks map to distinct slots.
	domain := uint64(w.keys)
	if w.dist == distDrift {
		domain = uint64(g.window)
	}
	g.scatter = 2654435761
	for gcd(g.scatter, domain) != 1 {
		g.scatter += 2
	}
	return g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// slot picks the stride an operation addresses; frac is the position of
// the operation in the whole stream (it selects the drift phase).
func (g *generator) slot(frac float64) int {
	n := g.w.keys
	switch g.w.dist {
	case distZipf:
		return int(g.zipf.Uint64() * g.scatter % uint64(n))
	case distDrift:
		if g.rng.Float64() < 0.8 {
			p := int(frac * float64(phases))
			if p >= phases {
				p = phases - 1
			}
			center := (2*p + 1) * n / (2 * phases)
			return center - g.window/2 + int(g.zipf.Uint64()*g.scatter%uint64(g.window))
		}
	}
	return g.rng.Intn(n)
}

// fresh allocates an unused key in stride s or, if it is full, the next
// stride with a free slot.
func (g *generator) fresh(s int) kv.Key {
	for {
		if m := g.used[s]; m != 1<<len(freshOffsets)-1 {
			for i, off := range freshOffsets {
				if m&(1<<i) == 0 {
					g.used[s] |= 1 << i
					return kv.Key(s)*keyStride + off
				}
			}
		}
		s = (s + 1) % g.w.keys
	}
}

// live picks, with equal probability, one of the live keys of stride s:
// the loaded key or a fresh key already handed out. Operations run in the
// order they are generated and no insert fails on a correct forest, so
// every fresh key picked here was acknowledged before the search that
// addresses it runs.
func (g *generator) live(s int) kv.Key {
	m := g.used[s]
	i := g.rng.Intn(1 + bits.OnesCount16(m))
	for b, off := range freshOffsets {
		if m&(1<<b) != 0 {
			if i == 0 {
				return kv.Key(s)*keyStride + off
			}
			i--
		}
	}
	return loadedKey(s)
}

// next generates n operations; total and done place them in the whole
// stream (warm-up plus timed) for phase selection.
func (g *generator) next(n, done, total int) []op {
	w := g.w
	out := make([]op, 0, n+1)
	for i := 0; i < n; i++ {
		frac := float64(done+i) / float64(total)
		u := g.rng.Float64()
		switch {
		case u < w.search:
			out = append(out, op{kind: opSearch, key: g.live(g.slot(frac))})
		case u < w.search+w.insert:
			out = append(out, op{kind: opInsert, key: g.fresh(g.slot(frac))})
		default:
			span := w.scanMin + g.rng.Intn(w.scanMax-w.scanMin+1)
			lo := g.rng.Intn(w.keys)
			hi := min(lo+span, w.keys)
			out = append(out, op{kind: opScan, key: kv.Key(lo) * keyStride, hi: kv.Key(hi) * keyStride})
		}
		if w.syncEvery > 0 && (done+i+1)%w.syncEvery == 0 {
			out = append(out, op{kind: opSync})
		}
	}
	return out
}
