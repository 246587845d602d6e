package main

import (
	"fmt"

	"repro/internal/kv"
)

// model is the reference the benchmark checks the forest against: every
// loaded key plus every fresh insert the forest acknowledged. Loaded keys
// are implicit (stride layout, values from valueOf), so the model is one
// bitmap word per stride.
type model struct {
	n     int
	fresh []uint16 // acknowledged fresh slots per stride, bit i = freshOffsets[i]
	count int64
}

func newModel(n int) *model { return &model{n: n, fresh: make([]uint16, n), count: int64(n)} }

// freshBit maps an in-stride offset to its bit, or -1 for the loaded slot.
var freshBit = func() [keyStride]int {
	var b [keyStride]int
	for i := range b {
		b[i] = -1
	}
	for i, off := range freshOffsets {
		b[off] = i
	}
	return b
}()

// ack records an acknowledged insert.
func (m *model) ack(k kv.Key) {
	s, off := int(k/keyStride), k%keyStride
	m.fresh[s] |= 1 << freshBit[off]
	m.count++
}

// has reports whether k is live in the reference.
func (m *model) has(k kv.Key) bool {
	s, off := k/keyStride, k%keyStride
	if s >= uint64(m.n) {
		return false
	}
	if off == 8 {
		return true
	}
	b := freshBit[off]
	return b >= 0 && m.fresh[s]&(1<<b) != 0
}

// checkSearch validates one point-search result.
func (m *model) checkSearch(k kv.Key, v kv.Value, found bool) error {
	want := m.has(k)
	if found != want || (found && v != valueOf(k)) {
		return fmt.Errorf("search %d: got (%d, %v), want found=%v value %d", k, v, found, want, valueOf(k))
	}
	return nil
}

// checkRange validates a scan of [lo, hi): ordered, complete, and with
// every value correct. It walks the strides the range covers in key order.
func (m *model) checkRange(lo, hi kv.Key, got []kv.Record) error {
	i := 0
	for s := lo / keyStride; s < uint64(m.n) && s*keyStride < hi; s++ {
		for off := kv.Key(0); off < keyStride; off++ {
			k := s*keyStride + off
			if k < lo || k >= hi || !m.has(k) {
				continue
			}
			if i >= len(got) {
				return fmt.Errorf("scan [%d,%d): missing key %d after %d records", lo, hi, k, i)
			}
			if got[i].Key != k || got[i].Value != valueOf(k) {
				return fmt.Errorf("scan [%d,%d): record %d is %+v, want key %d value %d", lo, hi, i, got[i], k, valueOf(k))
			}
			i++
		}
	}
	if i != len(got) {
		return fmt.Errorf("scan [%d,%d): %d extra records, first %+v", lo, hi, len(got)-i, got[i])
	}
	return nil
}
