package core

import (
	"slices"

	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// psyncReadPages reads the given pages in one psync call (or a sequence of
// sync reads when the psync ablation is on).
func (t *Tree) psyncReadPages(at vtime.Ticks, ids []pagefile.PageID, bufs [][]byte) (vtime.Ticks, error) {
	if len(ids) == 0 {
		return at, nil
	}
	t.stats.PsyncReads++
	if t.cfg.DisablePsync {
		var err error
		for i, id := range ids {
			id, buf := id, bufs[i]
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.ReadPage(at, id, buf)
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	// Reads are idempotent and a failed submission fills no buffers, so
	// resubmitting the whole batch is safe.
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncRead(at, ids, bufs)
	})
}

// psyncWritePages writes the given pages in one psync call (or serially
// under the ablation). When the tree flushes as part of a forest group,
// the writes are deferred into the group's shared gang instead.
func (t *Tree) psyncWritePages(at vtime.Ticks, ids []pagefile.PageID, bufs [][]byte) (vtime.Ticks, error) {
	if len(ids) == 0 {
		return at, nil
	}
	if t.gang != nil && !t.cfg.DisablePsync {
		runs := make([]pagefile.RunReq, len(ids))
		for i, id := range ids {
			runs[i] = pagefile.RunReq{First: id, N: 1, Buf: bufs[i], Write: true}
		}
		t.stats.GangedWrites++
		return at, t.gang.add(t.pf, runs)
	}
	t.stats.PsyncWrites++
	if t.cfg.DisablePsync {
		var err error
		for i, id := range ids {
			id, buf := id, bufs[i]
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.WritePage(at, id, buf)
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	// A failed submission applied nothing, so the resubmission writes the
	// same pages from the same buffers — idempotent by construction.
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncWrite(at, ids, bufs)
	})
}

// readInternalBatch fetches a set of distinct internal nodes as page
// views aligned with ids: buffered nodes come from the pool, misses are
// read with one psync call per PioMax pages and inserted clean.
func (t *Tree) readInternalBatch(at vtime.Ticks, ids []pagefile.PageID) ([]internalPage, vtime.Ticks, error) {
	out := make([]internalPage, len(ids))
	at, err := t.readPooled(at, ids, func(i int, data []byte) (err error) {
		out[i], err = viewInternal(ids[i], data)
		return err
	})
	return out, at, err
}

// readPooled reads distinct single pages through the buffer pool and
// hands each to view, by index into ids: hits as they are met (aliasing
// the pool frame), then the misses, read via psync PioMax at a time into
// the read scratch, each before it is inserted clean. The bytes stay
// valid until the next read-path call: the pool never recycles a frame's
// buffer, and InsertClean copies. Every page costs CPUPerNode.
func (t *Tree) readPooled(at vtime.Ticks, ids []pagefile.PageID, view func(i int, data []byte) error) (vtime.Ticks, error) {
	ps := t.cfg.PageSize
	var miss []int
	for i, id := range ids {
		if !t.pool.Contains(id) {
			miss = append(miss, i)
			continue
		}
		data, at2, err := t.poolGet(at, id)
		if err != nil {
			return at2, err
		}
		at = at2
		if err := view(i, data); err != nil {
			return at, err
		}
	}
	if len(miss) > 0 {
		buf := t.readScratch(len(miss) * ps)
		missIDs := make([]pagefile.PageID, len(miss))
		missBufs := make([][]byte, len(miss))
		for j, i := range miss {
			missIDs[j], missBufs[j] = ids[i], buf[j*ps:(j+1)*ps:(j+1)*ps]
		}
		pm := t.cfg.pioMax()
		var err error
		for j := 0; j < len(miss); j += pm {
			end := min(j+pm, len(miss))
			if at, err = t.psyncReadPages(at, missIDs[j:end], missBufs[j:end]); err != nil {
				return at, err
			}
		}
		for j, i := range miss {
			if err := view(i, missBufs[j]); err != nil {
				return at, err
			}
			t.pool.InsertClean(missIDs[j], missBufs[j])
		}
	}
	return at + vtime.Ticks(len(ids))*t.cfg.CPUPerNode, nil
}

// readLeafBatch reads distinct leaves (segments [0, lastLS]) via psync and
// returns them as views aligned with ids. Each multi-segment leaf is one
// multi-page request, so a psync batch of leaves exercises both
// channel-level (many requests) and package-level (large requests)
// parallelism at once. Single-page leaves flow through the pool like
// internal nodes. The views are valid until the next read-path call.
func (t *Tree) readLeafBatch(at vtime.Ticks, ids []pagefile.PageID) ([]leafPage, vtime.Ticks, error) {
	ps := t.cfg.PageSize
	out := make([]leafPage, len(ids))
	if t.cfg.LeafSegs == 1 {
		at, err := t.readPooled(at, ids, func(i int, data []byte) (err error) {
			out[i], err = viewLeaf(ids[i], data, ps)
			return err
		})
		return out, at, err
	}
	upto := make([]int, len(ids))
	total := 0
	for i, id := range ids {
		upto[i], _ = t.lastLSOf(id)
		total += upto[i] + 1
	}
	buf := t.readScratch(total * ps)
	bufs := make([][]byte, len(ids))
	for i := range ids {
		n := (upto[i] + 1) * ps
		bufs[i], buf = buf[:n:n], buf[n:]
	}
	pm := t.cfg.pioMax()
	var err error
	for i := 0; i < len(ids); i += pm {
		end := min(i+pm, len(ids))
		// A leaf read is one run request; emulate a psync batch of runs.
		if at, err = t.psyncReadRuns(at, ids[i:end], upto[i:end], bufs[i:end]); err != nil {
			return nil, at, err
		}
		for j := i; j < end; j++ {
			if out[j], err = viewLeaf(ids[j], bufs[j], ps); err != nil {
				return nil, at, err
			}
		}
	}
	return out, at + vtime.Ticks(len(ids))*t.cfg.CPUPerNode, nil
}

// psyncReadRuns issues one psync batch where request j covers
// (upto[j]+1) consecutive pages starting at ids[j].
func (t *Tree) psyncReadRuns(at vtime.Ticks, ids []pagefile.PageID, upto []int, bufs [][]byte) (vtime.Ticks, error) {
	if len(ids) == 0 {
		return at, nil
	}
	t.stats.PsyncReads++
	var err error
	if t.cfg.DisablePsync {
		for j, id := range ids {
			j, id := j, id
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.ReadRun(at, id, upto[j]+1, bufs[j])
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	// Split each run into its own request within one batch: the pagefile
	// psync API is page-granular, so expose runs as single big requests by
	// using the underlying file directly.
	reqs := make([]pagefile.RunReq, len(ids))
	for j, id := range ids {
		reqs[j] = pagefile.RunReq{First: id, N: upto[j] + 1, Buf: bufs[j], Write: false}
	}
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncRuns(at, reqs)
	})
}

// psyncWriteRuns is the write counterpart of psyncReadRuns. Forest group
// flushes defer the runs into the shared gang (one merged submission at
// the end of the group) instead of submitting here.
func (t *Tree) psyncWriteRuns(at vtime.Ticks, reqs []pagefile.RunReq) (vtime.Ticks, error) {
	if len(reqs) == 0 {
		return at, nil
	}
	if t.gang != nil && !t.cfg.DisablePsync {
		t.stats.GangedWrites++
		return at, t.gang.add(t.pf, reqs)
	}
	t.stats.PsyncWrites++
	var err error
	if t.cfg.DisablePsync {
		for _, r := range reqs {
			r := r
			at, err = t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
				return t.pf.WriteRun(at, r.First, r.N, r.Buf)
			})
			if err != nil {
				return at, err
			}
		}
		return at, nil
	}
	return t.retryIO(at, func(at vtime.Ticks) (vtime.Ticks, error) {
		return t.pf.PsyncRuns(at, reqs)
	})
}

// SearchMany is the paper's MPSearch (Algorithm 1): it resolves a set of
// search keys with one psync read per level, bounded by PioMax. Results
// are keyed by search key. The OPQ is consulted first for each key.
func (t *Tree) SearchMany(at vtime.Ticks, keys []kv.Key) (map[kv.Key]kv.Value, vtime.Ticks, error) {
	t.stats.SearchOps += int64(len(keys))
	found := make(map[kv.Key]kv.Value, len(keys))
	var rest []kv.Key
	for _, k := range keys {
		if e, ok := t.opq.Lookup(k); ok {
			t.stats.OPQShortcuts++
			if e.Op != kv.OpDelete {
				found[k] = e.Rec.Value
			}
			continue
		}
		rest = append(rest, k)
	}
	if len(rest) == 0 {
		return found, at, nil
	}
	slices.Sort(rest)

	// Descend level by level. Frontier node i owns the key range
	// keys[i] (a slice of rest).
	ids := []pagefile.PageID{t.root}
	routed := [][]kv.Key{rest}
	for lvl := t.height - 1; lvl > 0; lvl-- {
		nodes, at2, err := t.readInternalBatch(at, ids)
		if err != nil {
			return nil, at2, err
		}
		at = at2
		var nextIDs []pagefile.PageID
		var nextKeys [][]kv.Key
		for i, n := range nodes {
			// Partition the node's keys among its children (keys are sorted).
			ks := routed[i]
			for len(ks) > 0 {
				ci := n.childIndex(ks[0])
				j := 1
				for j < len(ks) && n.childIndex(ks[j]) == ci {
					j++
				}
				nextIDs = append(nextIDs, n.child(ci))
				nextKeys = append(nextKeys, ks[:j])
				ks = ks[j:]
			}
		}
		ids, routed = nextIDs, nextKeys
	}
	// Leaf level: read all target leaves via psync.
	leaves, at, err := t.readLeafBatch(at, ids)
	if err != nil {
		return nil, at, err
	}
	for i, l := range leaves {
		for _, k := range routed[i] {
			if e, ok := l.lookup(k); ok && e.Op != kv.OpDelete {
				found[k] = e.Rec.Value
			}
		}
	}
	return found, at, nil
}

// RangeSearch is the paper's prange search (Section 3.1.2): internal
// levels are traversed level by level, then every leaf overlapping the
// range is read in parallel via psync. The in-range base records and log
// entries are read straight from the leaf bytes, the OPQ's in-range
// entries (newer than anything on disk) are appended to the log, and one
// sort-merge (resolveLog) yields the live records in key order: leaves
// come left to right with disjoint key ranges, so the gathered base is
// already sorted.
func (t *Tree) RangeSearch(at vtime.Ticks, lo, hi kv.Key) ([]kv.Record, vtime.Ticks, error) {
	t.stats.RangeOps++
	if hi <= lo {
		return nil, at, nil
	}
	frontier := []pagefile.PageID{t.root}
	for lvl := t.height - 1; lvl > 0; lvl-- {
		nodes, at2, err := t.readInternalBatch(at, frontier)
		if err != nil {
			return nil, at2, err
		}
		at = at2
		var next []pagefile.PageID
		for _, n := range nodes {
			// hi is exclusive: the child covering hi-1 is the last needed.
			for c, last := n.childIndex(lo), n.childIndex(hi-1); c <= last; c++ {
				next = append(next, n.child(c))
			}
		}
		frontier = next
	}
	leaves, at, err := t.readLeafBatch(at, frontier)
	if err != nil {
		return nil, at, err
	}
	base, log := t.scanBase[:0], t.scanLog[:0]
	for _, l := range leaves {
		base, log = l.scan(base, log, lo, hi-1)
	}
	log = t.opq.AppendRange(log, lo, hi)
	recs := resolveLog(make([]kv.Record, 0, len(base)+len(log)), base, log)
	if len(leaves) <= t.cfg.pioMax() {
		// Keep the scratch only while it is sized to one psync batch of
		// leaves, so one huge scan does not pin its whole read set.
		t.scanBase, t.scanLog = base, log
	}
	return recs, at, nil
}

// fenceRec is a fence-key record propagated to a parent after a leaf or
// internal split (the paper's Kf).
type fenceRec struct {
	key   kv.Key
	child pagefile.PageID
}

// FlushBatch runs one batch update (Algorithm 2/3) over up to bcnt OPQ
// entries (<= 0 processes the whole queue). It is the paper's OPQ flush
// operation, bracketed by flush event logs when a WAL is attached.
func (t *Tree) FlushBatch(at vtime.Ticks, bcnt int) (vtime.Ticks, error) {
	batch := t.opq.TakeBatch(bcnt)
	if len(batch) == 0 {
		return at, nil
	}
	t.stats.Flushes++
	var err error
	var flushID uint64
	if t.log != nil {
		t.flushID++
		flushID = t.flushID
		t.log.Append(wal.Record{
			Kind:     wal.KindFlushStart,
			Relation: t.cfg.Relation,
			FlushID:  flushID,
			KeyLo:    batch[0].Rec.Key,
			KeyHi:    batch[len(batch)-1].Rec.Key,
		})
		// WAL rule: the flush-start record and all logical logs of the
		// chosen entries must be durable before any node write.
		at, err = t.forceWAL(at)
		if err != nil {
			return at, err
		}
	}
	if t.height == 1 {
		// Root is a leaf.
		fences, at2, err := t.flushLeaves(at, []leafGroup{{id: t.root, entries: batch}})
		if err != nil {
			return at2, err
		}
		at = at2
		var rootFences []fenceRec
		for _, fs := range fences {
			rootFences = append(rootFences, fs...)
		}
		at, err = t.growRoot(at, t.root, 0, rootFences)
		if err != nil {
			return at, err
		}
	} else {
		fences, at2, err := t.bupdate(at, t.root, t.height-1, batch)
		if err != nil {
			return at2, err
		}
		at = at2
		at, err = t.growRoot(at, t.root, t.height-1, fences)
		if err != nil {
			return at, err
		}
	}
	if t.log != nil {
		end := wal.Record{
			Kind:     wal.KindFlushEnd,
			Relation: t.cfg.Relation,
			FlushID:  flushID,
			KeyLo:    batch[0].Rec.Key,
			KeyHi:    batch[len(batch)-1].Rec.Key,
		}
		if t.walGang != nil {
			// Group commit: the FlushEnd must not become durable before the
			// group's data writes, which are themselves deferred into the
			// coordinator's gang. Hand the record to the coordinator, which
			// appends and gang-forces it after the data submission.
			t.walGang.deferEnd(t, end)
		} else {
			t.log.Append(end)
			// A retried force resubmits the whole unforced tail, so the
			// FlushEnd still reaches the device after the data writes.
			at, err = t.retryIO(at, t.log.Force)
			if err != nil {
				return at, err
			}
		}
	}
	if t.walGang == nil {
		// Inline commit: the FlushEnd is durable, so this is a commit
		// point for the quarantine rollback baseline. Group commits reach
		// theirs when the coordinator's phase-2 force lands.
		t.commitDurableMeta()
	}
	return at, nil
}

// growRoot absorbs fence records produced by the root node, growing the
// tree as many levels as necessary.
func (t *Tree) growRoot(at vtime.Ticks, oldRoot pagefile.PageID, rootLevel int, fences []fenceRec) (vtime.Ticks, error) {
	var err error
	for len(fences) > 0 {
		n := &internalNode{id: t.pf.Alloc(), level: rootLevel + 1}
		n.children = append(n.children, oldRoot)
		for _, f := range fences {
			n.keys = append(n.keys, f.key)
			n.children = append(n.children, f.child)
		}
		if len(n.keys) > maxInternalKeys(t.cfg.PageSize) {
			var up []fenceRec
			n, up, err = t.splitInternalMulti(n)
			if err != nil {
				return at, err
			}
			at, err = t.writeInternalBatch(at, []*internalNode{n})
			if err != nil {
				return at, err
			}
			oldRoot, rootLevel, fences = n.id, n.level, up
			t.root = n.id
			t.height = rootLevel + 1
			continue
		}
		at, err = t.writeInternalBatch(at, []*internalNode{n})
		if err != nil {
			return at, err
		}
		t.root = n.id
		t.height = n.level + 1
		return at, nil
	}
	return at, nil
}

// leafGroup routes a key-sorted entry slice to one leaf.
type leafGroup struct {
	id      pagefile.PageID
	entries []kv.Entry
}

// bupdate descends from node id at the given level, routing the key-sorted
// batch to children, recursing in PioMax-bounded groups, applying returned
// fence records, splitting as needed, and writing updated internal nodes
// via psync. It returns the fence records for the caller's level.
func (t *Tree) bupdate(at vtime.Ticks, id pagefile.PageID, level int, batch []kv.Entry) ([]fenceRec, vtime.Ticks, error) {
	pages, at, err := t.readInternalBatch(at, []pagefile.PageID{id})
	if err != nil {
		return nil, at, err
	}
	n, err := decodeInternal(id, pages[0])
	if err != nil {
		return nil, at, err
	}

	// Partition batch among children.
	type childWork struct {
		idx     int
		id      pagefile.PageID
		entries []kv.Entry
	}
	var work []childWork
	i := 0
	for i < len(batch) {
		ci := n.childIndex(batch[i].Rec.Key)
		j := i + 1
		for j < len(batch) && n.childIndex(batch[j].Rec.Key) == ci {
			j++
		}
		work = append(work, childWork{idx: ci, id: n.children[ci], entries: batch[i:j]})
		i = j
	}

	// Process children and collect fences per child index.
	fencesByChild := make(map[int][]fenceRec)
	if level == 1 {
		// Children are leaves: flush them in PioMax-bounded groups.
		pm := t.cfg.pioMax()
		for i := 0; i < len(work); i += pm {
			end := i + pm
			if end > len(work) {
				end = len(work)
			}
			groups := make([]leafGroup, 0, end-i)
			for _, w := range work[i:end] {
				groups = append(groups, leafGroup{id: w.id, entries: w.entries})
			}
			fences, at2, err := t.flushLeaves(at, groups)
			if err != nil {
				return nil, at2, err
			}
			at = at2
			// flushLeaves returns fences tagged by group order.
			for gi, fs := range fences {
				w := work[i+gi]
				fencesByChild[w.idx] = append(fencesByChild[w.idx], fs...)
			}
		}
	} else {
		for _, w := range work {
			fs, at2, err := t.bupdate(at, w.id, level-1, w.entries)
			if err != nil {
				return nil, at2, err
			}
			at = at2
			fencesByChild[w.idx] = append(fencesByChild[w.idx], fs...)
		}
	}
	if len(fencesByChild) == 0 {
		return nil, at, nil
	}

	// Apply fence records: insert (key, child) pairs after each split
	// child, in child order.
	newKeys := make([]kv.Key, 0, len(n.keys)+len(fencesByChild))
	newChildren := make([]pagefile.PageID, 0, len(n.children)+len(fencesByChild))
	for ci, child := range n.children {
		if ci > 0 {
			newKeys = append(newKeys, n.keys[ci-1])
		}
		newChildren = append(newChildren, child)
		for _, f := range fencesByChild[ci] {
			newKeys = append(newKeys, f.key)
			newChildren = append(newChildren, f.child)
		}
	}
	n.keys, n.children = newKeys, newChildren

	var up []fenceRec
	if len(n.keys) > maxInternalKeys(t.cfg.PageSize) {
		var err error
		n, up, err = t.splitInternalMulti(n)
		if err != nil {
			return nil, at, err
		}
	}
	at, err = t.writeInternalBatch(at, []*internalNode{n})
	if err != nil {
		return nil, at, err
	}
	return up, at, nil
}

// splitInternalMulti splits an overfull internal node into chunks of at
// most the key capacity, writes the new right siblings, and returns the
// revised node plus the fence records for the parent. The separator key
// between chunks moves up, B+-tree style.
func (t *Tree) splitInternalMulti(n *internalNode) (*internalNode, []fenceRec, error) {
	maxKeys := maxInternalKeys(t.cfg.PageSize)
	half := maxKeys / 2
	var fences []fenceRec
	var rights []*internalNode
	for len(n.keys) > maxKeys {
		// Keep `half` keys in n; key[half] moves up; rest goes right.
		upKey := n.keys[half]
		right := &internalNode{id: t.pf.Alloc(), level: n.level}
		right.keys = append(right.keys, n.keys[half+1:]...)
		right.children = append(right.children, n.children[half+1:]...)
		n.keys = n.keys[:half]
		n.children = n.children[:half+1]
		fences = append(fences, fenceRec{key: upKey, child: right.id})
		rights = append(rights, right)
		// Continue splitting the right part if still overfull.
		if len(right.keys) > maxKeys {
			n2 := right
			// Swap: iterate on right as the node being reduced; n is done.
			// To keep code simple, recurse.
			sub, subF, err := t.splitInternalMulti(n2)
			if err != nil {
				return nil, nil, err
			}
			rights[len(rights)-1] = sub
			fences = append(fences, subF...)
			break
		}
	}
	// Write the new right siblings (timed, via psync with the node itself
	// written by the caller).
	for _, r := range rights {
		buf := make([]byte, t.cfg.PageSize)
		if err := r.encode(buf); err != nil {
			return nil, nil, err
		}
		t.pendingInternal = append(t.pendingInternal, pendingPage{id: r.id, buf: buf})
	}
	return n, fences, nil
}

// pendingPage is an internal-node page queued for the next psync write.
type pendingPage struct {
	id  pagefile.PageID
	buf []byte
}

// writeInternalBatch writes the given internal nodes plus any pending
// split siblings in one psync call, logging undo images first when a WAL
// is attached, and refreshes the buffer pool copies.
func (t *Tree) writeInternalBatch(at vtime.Ticks, ns []*internalNode) (vtime.Ticks, error) {
	pages := make([]pendingPage, 0, len(ns)+len(t.pendingInternal))
	for _, n := range ns {
		buf := make([]byte, t.cfg.PageSize)
		if err := n.encode(buf); err != nil {
			return at, err
		}
		pages = append(pages, pendingPage{id: n.id, buf: buf})
	}
	pages = append(pages, t.pendingInternal...)
	t.pendingInternal = t.pendingInternal[:0]

	var err error
	if t.log != nil {
		at, err = t.logUndoImages(at, pages)
		if err != nil {
			return at, err
		}
	}
	ids := make([]pagefile.PageID, len(pages))
	bufs := make([][]byte, len(pages))
	for i, p := range pages {
		ids[i] = p.id
		bufs[i] = p.buf
	}
	at, err = t.psyncWritePages(at, ids, bufs)
	if err != nil {
		return at, err
	}
	for _, p := range pages {
		t.pool.InsertClean(p.id, p.buf)
	}
	return at, nil
}

// logUndoImages appends a flush undo log (pre-image) for every page about
// to be overwritten and forces the WAL (write-ahead rule).
func (t *Tree) logUndoImages(at vtime.Ticks, pages []pendingPage) (vtime.Ticks, error) {
	for _, p := range pages {
		pre := make([]byte, t.cfg.PageSize)
		if err := t.pf.ReadPageNoCost(p.id, pre); err != nil {
			// A freshly allocated page has no pre-image worth keeping, but
			// ReadPageNoCost succeeds for any allocated page; real errors
			// propagate.
			return at, err
		}
		t.log.Append(wal.Record{
			Kind:     wal.KindFlushUndo,
			Relation: t.cfg.Relation,
			FlushID:  t.flushID,
			NodeID:   int64(p.id),
			UndoInfo: pre,
		})
	}
	return t.forceWAL(at)
}
