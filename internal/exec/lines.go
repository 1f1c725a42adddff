package exec

import (
	"cmp"
	"math/bits"
	"slices"
)

// lineSet is the set of distinct line touches of one trace, one entry
// per (slot, kind, line). Its storage survives a reset, so a reused
// machine or TraceBuilder allocates for lines only when a run touches
// more of them than every earlier one.
type lineSet struct {
	// touches holds the entries in first-touch order.
	touches []LineTouch
	// index is an open-addressing table over touches: 1 + the entry's
	// index in touches, or 0 for a free bucket. Its length is zero or a
	// power of two, at least twice len(touches).
	index []int32
	// shift maps a hash to a bucket: its top log2(len(index)) bits.
	shift uint8
	// sorted is touches in Trace.Lines order, and slot s's entries are
	// sorted[start[s]:start[s+1]]. Both are current when sorted is as
	// long as touches, which only grows between resets.
	sorted []LineTouch
	start  []int32
}

// maxKeptLines bounds the line set a released machine keeps for reuse,
// in entries; a run that touched more leaves none behind.
const maxKeptLines = 1 << 12

// minLineBuckets is the index length of a set's first entry.
const minLineBuckets = 16

// add inserts lt unless the set holds it.
func (l *lineSet) add(lt LineTouch) {
	if 2*(len(l.touches)+1) > len(l.index) {
		l.grow()
	}
	mask := len(l.index) - 1
	for b := l.bucket(lt); ; b = (b + 1) & mask {
		i := l.index[b]
		if i == 0 {
			l.touches = append(l.touches, lt)
			l.index[b] = int32(len(l.touches))
			return
		}
		if l.touches[i-1] == lt {
			return
		}
	}
}

// bucket returns lt's home bucket: a multiplicative hash of the line
// and the slot and kind, whose top bits depend on every input bit.
func (l *lineSet) bucket(lt LineTouch) int {
	k := uint64(uint32(lt.Slot)) << 1
	if lt.Flush {
		k |= 1
	}
	h := (lt.Line ^ k*0xff51afd7ed558ccd) * 0x9e3779b97f4a7c15
	return int(h >> l.shift)
}

// grow doubles the index, reusing its storage when it has the capacity,
// and rehashes every entry into it.
func (l *lineSet) grow() {
	n := max(minLineBuckets, 2*len(l.index))
	l.index = resize(l.index, n)
	l.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for i, lt := range l.touches {
		b := l.bucket(lt)
		for l.index[b] != 0 {
			b = (b + 1) & mask
		}
		l.index[b] = int32(i + 1)
	}
}

// sort brings sorted and start up to date for a trace of n slots: a
// counting sort by slot, then each slot's entries by kind and line.
func (l *lineSet) sort(n int) {
	if len(l.sorted) == len(l.touches) && len(l.start) == n+1 {
		return
	}
	start := resize(l.start, n+1)
	for _, lt := range l.touches {
		start[lt.Slot+1]++
	}
	for s := 1; s <= n; s++ {
		start[s] += start[s-1]
	}
	// Each entry goes to its slot's next free place, start[slot], which
	// ends up at the slot's end, the next slot's start.
	sorted := resize(l.sorted, len(l.touches))
	for _, lt := range l.touches {
		sorted[start[lt.Slot]] = lt
		start[lt.Slot]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	for s := 0; s < n; s++ {
		if run := sorted[start[s]:start[s+1]]; len(run) > 1 {
			slices.SortFunc(run, byKindLine)
		}
	}
	l.sorted, l.start = sorted, start
}

// byKindLine orders one slot's entries: loads and stores before
// flushes, then by line.
func byKindLine(a, b LineTouch) int {
	if a.Flush != b.Flush {
		if b.Flush {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Line, b.Line)
}

// reset empties the set, keeping its storage.
func (l *lineSet) reset() {
	l.touches, l.sorted, l.start = l.touches[:0], l.sorted[:0], l.start[:0]
	clear(l.index)
}

// trim drops the set's storage when it holds more than maxKeptLines
// entries, an index sized for that many, or slot starts for a program
// longer than maxKeptInsns.
func (l *lineSet) trim() {
	if cap(l.touches) > maxKeptLines || cap(l.sorted) > maxKeptLines || len(l.index) > 2*maxKeptLines || cap(l.start) > maxKeptInsns+1 {
		*l = lineSet{}
	}
}
