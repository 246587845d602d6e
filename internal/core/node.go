// Package core implements the paper's primary contribution: the PIO B-tree
// (Parallel I/O B-tree, Section 3), a B+-tree variant whose algorithms are
// rebuilt around psync I/O so the index exploits the internal parallelism
// of flash SSDs:
//
//   - MPSearch descends the tree level by level, reading all needed nodes
//     of a level in one psync call bounded by PioMax (Algorithm 1);
//   - updates are buffered in the Operation Queue (OPQ) and batch-applied
//     by bupdate, which reads and writes leaf pages via psync (Algorithm 2);
//   - leaves are asymmetric: L Leaf Segments (LS) of one page each with an
//     append-only entry log, so an update touches a single page; the LSMap
//     caches each leaf's last-LS id; shrink cancels insert/delete pairs
//     before splits (Section 3.2.2, Algorithm 3);
//   - prange search reads the leaves of a key range in parallel instead of
//     chasing the leaf chain (Section 3.1.2);
//   - node sizes are chosen by the cost model of Section 3.2.1/3.6.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/kv"
	"repro/internal/pagefile"
)

// node kinds on disk.
const (
	kindInternal byte = 1
	kindLeafSeg  byte = 3
)

// internalHeaderSize is the header of an internal node page:
// kind(1) level(1) count(2) pad(12).
const internalHeaderSize = 16

// segHeaderSize is the header of every leaf segment page: kind(1)
// segIdx(1) count(2) sortedCount(4) next(8). sortedCount and next are
// meaningful only in segment 0.
const segHeaderSize = 16

// internalNode is the in-memory form of a PIO B-tree internal node
// (identical to a classic B+-tree internal node, Figure 5).
type internalNode struct {
	id       pagefile.PageID
	level    int
	keys     []kv.Key
	children []pagefile.PageID
}

// maxInternalKeys is the separator capacity of an internal node page.
func maxInternalKeys(pageSize int) int { return (pageSize - internalHeaderSize - 8) / 16 }

func (n *internalNode) encode(buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	if len(n.keys) > maxInternalKeys(len(buf)) {
		return fmt.Errorf("core: internal %d overflow: %d keys", n.id, len(n.keys))
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("core: internal %d: %d keys, %d children", n.id, len(n.keys), len(n.children))
	}
	buf[0] = kindInternal
	buf[1] = byte(n.level)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(n.keys)))
	off := internalHeaderSize
	for _, k := range n.keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
	}
	for _, c := range n.children {
		binary.LittleEndian.PutUint64(buf[off:], uint64(c))
		off += 8
	}
	return nil
}

// internalPage is an internal node page probed in place: the read paths
// binary-search its key array and read child ids straight from the page
// bytes instead of decoding the node.
type internalPage []byte

// viewInternal checks that buf holds internal node id and returns it as a
// page view.
func viewInternal(id pagefile.PageID, buf []byte) (internalPage, error) {
	if buf[0] != kindInternal {
		return nil, fmt.Errorf("core: page %d is not an internal node (kind %d)", id, buf[0])
	}
	p := internalPage(buf)
	if p.count() > maxInternalKeys(len(buf)) {
		return nil, fmt.Errorf("core: corrupt internal %d: count %d", id, p.count())
	}
	return p, nil
}

func (p internalPage) level() int { return int(p[1]) }

func (p internalPage) count() int { return int(binary.LittleEndian.Uint16(p[2:])) }

func (p internalPage) key(i int) kv.Key {
	return binary.LittleEndian.Uint64(p[internalHeaderSize+8*i:])
}

func (p internalPage) child(i int) pagefile.PageID {
	return pagefile.PageID(binary.LittleEndian.Uint64(p[internalHeaderSize+8*(p.count()+i):]))
}

// childIndex is the paper's CheckSearchNeeded predicate: the child i such
// that K[i-1] <= k < K[i].
func (p internalPage) childIndex(k kv.Key) int {
	lo, hi := 0, p.count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k < p.key(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// decodeInternal copies an internal node page into its mutable in-memory
// form (the update path edits and re-encodes it).
func decodeInternal(id pagefile.PageID, buf []byte) (*internalNode, error) {
	p, err := viewInternal(id, buf)
	if err != nil {
		return nil, err
	}
	n := &internalNode{
		id:       id,
		level:    p.level(),
		keys:     make([]kv.Key, p.count()),
		children: make([]pagefile.PageID, p.count()+1),
	}
	for i := range n.keys {
		n.keys[i] = p.key(i)
	}
	for i := range n.children {
		n.children[i] = p.child(i)
	}
	return n, nil
}

// childIndex is internalPage.childIndex on the decoded node.
func (n *internalNode) childIndex(k kv.Key) int {
	i, found := slices.BinarySearch(n.keys, k)
	if found {
		i++
	}
	return i
}

// leafNode is the in-memory form of an asymmetric PIO B-tree leaf: L
// segments of one page each holding an append-only log of OPQ-style
// entries. entries[:sorted] is the key-sorted base region produced by the
// last shrink (all inserts); entries[sorted:] is the appended tail in
// arrival order (any op type).
//
// A leafNode may be a partial view holding only the entries from segment
// firstSeg onward (the update path reads just the leaf tail). Segments
// before firstSeg are implied full — entries fill segments in order — so
// the total entry count is still known. sorted and next are meaningful
// only when firstSeg == 0 (full view).
type leafNode struct {
	id       pagefile.PageID // first segment's page id; segments are consecutive
	segs     int             // L
	firstSeg int             // 0 for a full view
	next     pagefile.PageID // right sibling (leaf chain)
	sorted   int
	entries  []kv.Entry // entries from segment firstSeg onward
}

// segCap is the entry capacity of one leaf segment page.
func segCap(pageSize int) int { return (pageSize - segHeaderSize) / kv.EntrySize }

// leafCap is the total entry capacity of a leaf with the given shape.
func leafCap(pageSize, segs int) int { return segs * segCap(pageSize) }

// segOf returns the segment index holding entry i.
func segOf(pageSize, i int) int { return i / segCap(pageSize) }

// totalCount returns the leaf's total entry count, including the implied
// full segments before firstSeg.
func (l *leafNode) totalCount(pageSize int) int {
	return l.firstSeg*segCap(pageSize) + len(l.entries)
}

// encodeSeg serializes segment s of the leaf into buf (one page). The
// segment must be within the view (s >= firstSeg); segment 0 metadata is
// only written from a full view.
func (l *leafNode) encodeSeg(buf []byte, s int) error {
	if s < l.firstSeg || s >= l.segs {
		return fmt.Errorf("core: leaf %d: segment %d outside view [%d,%d)", l.id, s, l.firstSeg, l.segs)
	}
	for i := range buf {
		buf[i] = 0
	}
	cap1 := segCap(len(buf))
	lo := s*cap1 - l.firstSeg*cap1
	hi := lo + cap1
	if hi > len(l.entries) {
		hi = len(l.entries)
	}
	n := 0
	if hi > lo {
		n = hi - lo
	}
	buf[0] = kindLeafSeg
	buf[1] = byte(s)
	binary.LittleEndian.PutUint16(buf[2:], uint16(n))
	if s == 0 {
		binary.LittleEndian.PutUint32(buf[4:], uint32(l.sorted))
		binary.LittleEndian.PutUint64(buf[8:], uint64(l.next))
	}
	off := segHeaderSize
	for i := lo; i < lo+n; i++ {
		kv.PutEntry(buf[off:], l.entries[i])
		off += kv.EntrySize
	}
	return nil
}

// encodeAll serializes the whole leaf into buf (segs pages); requires a
// full view.
func (l *leafNode) encodeAll(buf []byte, pageSize int) error {
	if l.firstSeg != 0 {
		return fmt.Errorf("core: leaf %d: encodeAll on partial view from seg %d", l.id, l.firstSeg)
	}
	if len(buf) != l.segs*pageSize {
		return fmt.Errorf("core: leaf %d: buffer %d bytes, want %d", l.id, len(buf), l.segs*pageSize)
	}
	for s := 0; s < l.segs; s++ {
		if err := l.encodeSeg(buf[s*pageSize:(s+1)*pageSize], s); err != nil {
			return err
		}
	}
	return nil
}

// decodeTail parses a partial leaf view from buf, which holds the
// consecutive segments starting at firstSeg. Decoding stops at the first
// non-full segment (later segments are empty by the append invariant).
func decodeTail(id pagefile.PageID, buf []byte, pageSize, segs, firstSeg int) (*leafNode, error) {
	n := len(buf) / pageSize
	l := &leafNode{id: id, segs: segs, firstSeg: firstSeg}
	for s := 0; s < n; s++ {
		page := buf[s*pageSize : (s+1)*pageSize]
		if page[0] != kindLeafSeg {
			return nil, fmt.Errorf("core: leaf %d seg %d: bad kind %d", id, firstSeg+s, page[0])
		}
		cnt := int(binary.LittleEndian.Uint16(page[2:]))
		if cnt > segCap(pageSize) {
			return nil, fmt.Errorf("core: leaf %d seg %d: count %d", id, firstSeg+s, cnt)
		}
		if firstSeg+s == 0 {
			l.sorted = int(binary.LittleEndian.Uint32(page[4:]))
			l.next = pagefile.PageID(binary.LittleEndian.Uint64(page[8:]))
		}
		off := segHeaderSize
		for i := 0; i < cnt; i++ {
			l.entries = append(l.entries, kv.GetEntry(page[off:]))
			off += kv.EntrySize
		}
		if cnt < segCap(pageSize) {
			break
		}
	}
	return l, nil
}

// fillFront upgrades a partial view to a full view using buf, the
// contents of segments [0, firstSeg).
func (l *leafNode) fillFront(buf []byte, pageSize, firstSeg int) error {
	if l.firstSeg != firstSeg {
		return fmt.Errorf("core: leaf %d: fillFront mismatch %d != %d", l.id, l.firstSeg, firstSeg)
	}
	if l.firstSeg == 0 {
		return nil
	}
	front := make([]kv.Entry, 0, firstSeg*segCap(pageSize))
	for s := 0; s < firstSeg; s++ {
		page := buf[s*pageSize : (s+1)*pageSize]
		if page[0] != kindLeafSeg {
			return fmt.Errorf("core: leaf %d seg %d: bad kind %d", l.id, s, page[0])
		}
		cnt := int(binary.LittleEndian.Uint16(page[2:]))
		if cnt != segCap(pageSize) {
			return fmt.Errorf("core: leaf %d seg %d: front segment not full (%d)", l.id, s, cnt)
		}
		if s == 0 {
			l.sorted = int(binary.LittleEndian.Uint32(page[4:]))
			l.next = pagefile.PageID(binary.LittleEndian.Uint64(page[8:]))
		}
		off := segHeaderSize
		for i := 0; i < cnt; i++ {
			front = append(front, kv.GetEntry(page[off:]))
			off += kv.EntrySize
		}
	}
	l.entries = append(front, l.entries...)
	l.firstSeg = 0
	return nil
}

// lastSeg returns the segment index holding the newest entry (0 for an
// empty leaf): the last LS cached in the LSMap.
func (l *leafNode) lastSeg(pageSize int) int {
	n := l.totalCount(pageSize)
	if n == 0 {
		return 0
	}
	return segOf(pageSize, n-1)
}

// appendEntries extends the leaf's log.
func (l *leafNode) appendEntries(entries []kv.Entry) {
	l.entries = append(l.entries, entries...)
}

// shrink rebuilds the leaf from its live records: the paper's shrink
// operation (Section 3.2.2) — index-delete operations cancel index-insert
// operations with the same records, then the survivors are sorted into a
// fresh base region.
func (l *leafNode) shrink() {
	base := make([]kv.Record, l.sorted)
	for i, e := range l.entries[:l.sorted] {
		base[i] = e.Rec
	}
	live := resolveLog(make([]kv.Record, 0, len(l.entries)), base, l.entries[l.sorted:])
	l.entries = l.entries[:0]
	for _, r := range live {
		l.entries = append(l.entries, kv.Entry{Rec: r, Op: kv.OpInsert})
	}
	l.sorted = len(l.entries)
}

// minKey returns the smallest live key (only valid for a shrunk leaf with
// at least one entry).
func (l *leafNode) minKey() kv.Key {
	if l.sorted == 0 {
		return 0
	}
	return l.entries[0].Rec.Key
}

// leafPage is a leaf probed in place: the bytes of its segments [0, n)
// exactly as read from the device or the buffer pool. Entries fill
// segments in order, so entry i sits at slot i%segCap of segment i/segCap;
// decoding stops at the first non-full segment, and unread segments past
// the view are empty by the same invariant. The read paths probe and scan
// it without materializing entries.
type leafPage struct {
	buf    []byte
	ps     int // page size
	slots  int // entries per segment
	count  int // entries in the view
	sorted int // length of the key-sorted base region (distinct keys)
}

// viewLeaf checks the segments of leaf id held in buf (a whole number of
// pages, starting at segment 0) and returns them as a leaf view.
func viewLeaf(id pagefile.PageID, buf []byte, ps int) (leafPage, error) {
	v := leafPage{buf: buf, ps: ps, slots: segCap(ps)}
	for s := 0; s < len(buf)/ps; s++ {
		page := buf[s*ps:]
		if page[0] != kindLeafSeg {
			return leafPage{}, fmt.Errorf("core: leaf %d seg %d: bad kind %d", id, s, page[0])
		}
		n := int(binary.LittleEndian.Uint16(page[2:]))
		if n > v.slots {
			return leafPage{}, fmt.Errorf("core: leaf %d seg %d: count %d", id, s, n)
		}
		v.count += n
		if n < v.slots {
			break // later segments are empty
		}
	}
	v.sorted = int(binary.LittleEndian.Uint32(buf[4:]))
	if v.sorted > v.count {
		return leafPage{}, fmt.Errorf("core: leaf %d: sorted %d > entries %d", id, v.sorted, v.count)
	}
	return v, nil
}

// slot returns the bytes of segment s's entry area.
func (v leafPage) slot(s int) []byte { return v.buf[s*v.ps+segHeaderSize:] }

// at returns entry i's bytes (random access, for the binary searches).
func (v leafPage) at(i int) []byte { return v.slot(i / v.slots)[i%v.slots*kv.EntrySize:] }

func (v leafPage) key(i int) kv.Key { return binary.LittleEndian.Uint64(v.at(i)) }

// lowerBound returns the first base-region index whose key is >= k.
func (v leafPage) lowerBound(k kv.Key) int {
	lo, hi := 0, v.sorted
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.key(mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookup returns the newest entry for key k and whether any entry exists:
// the appended tail is scanned newest-first, then the sorted base region
// is binary-searched.
func (v leafPage) lookup(k kv.Key) (kv.Entry, bool) {
	for i := v.count - 1; i >= v.sorted; {
		s := i / v.slots
		area := v.slot(s)
		for j, stop := i-s*v.slots, max(v.sorted-s*v.slots, 0); j >= stop; j-- {
			if b := area[j*kv.EntrySize:]; binary.LittleEndian.Uint64(b) == k {
				return kv.GetEntry(b), true
			}
		}
		i = s*v.slots - 1
	}
	if i := v.lowerBound(k); i < v.sorted && v.key(i) == k {
		return kv.GetEntry(v.at(i)), true
	}
	return kv.Entry{}, false
}

// scan appends to base the base-region records and to log the tail
// entries whose keys lie in [lo, last]: base ascending by key, log in
// arrival order — the two inputs of resolveLog.
func (v leafPage) scan(base []kv.Record, log []kv.Entry, lo, last kv.Key) ([]kv.Record, []kv.Entry) {
baseLoop:
	for i := v.lowerBound(lo); i < v.sorted; {
		s := i / v.slots
		area := v.slot(s)
		for j, n := i-s*v.slots, min(v.slots, v.sorted-s*v.slots); j < n; j++ {
			b := area[j*kv.EntrySize:]
			k := binary.LittleEndian.Uint64(b)
			if k > last {
				break baseLoop
			}
			base = append(base, kv.Record{Key: k, Value: binary.LittleEndian.Uint64(b[8:])})
		}
		i = (s + 1) * v.slots
	}
	for i := v.sorted; i < v.count; {
		s := i / v.slots
		area := v.slot(s)
		for j, n := i-s*v.slots, min(v.slots, v.count-s*v.slots); j < n; j++ {
			b := area[j*kv.EntrySize:]
			if k := binary.LittleEndian.Uint64(b); k >= lo && k <= last {
				log = append(log, kv.GetEntry(b))
			}
		}
		i = (s + 1) * v.slots
	}
	return base, log
}

// liveRecords resolves the whole view into its sorted live records.
func (v leafPage) liveRecords() []kv.Record {
	base, log := v.scan(nil, nil, 0, math.MaxUint64)
	return resolveLog(make([]kv.Record, 0, len(base)+len(log)), base, log)
}

// resolveLog is the one leaf-log resolver, shared by range scans (with
// the OPQ overlay), shrink and the invariant walk. base is a key-sorted
// run of live records with distinct keys; log holds the operations
// applied after it, in arrival order. log is stable-sorted by key in
// place, so each key's operations stay in arrival order, and merged with
// base: for every key the newest operation wins (a delete drops the key,
// an insert or update sets its value) and keys without one keep their
// base record. The live records are appended to out, which must not
// overlap base, in key order.
func resolveLog(out, base []kv.Record, log []kv.Entry) []kv.Record {
	kv.SortEntries(log)
	i := 0
	for j := 0; j < len(log); j++ {
		k := log[j].Rec.Key
		if j+1 < len(log) && log[j+1].Rec.Key == k {
			continue // an older operation on k
		}
		b := i
		for b < len(base) && base[b].Key < k {
			b++
		}
		out = append(out, base[i:b]...)
		if b < len(base) && base[b].Key == k {
			b++
		}
		i = b
		if log[j].Op != kv.OpDelete {
			out = append(out, log[j].Rec)
		}
	}
	return append(out, base[i:]...)
}
