// Package recon implements trace reconstruction (paper §4): turning a
// snap's raw trace buffers plus the instrumentation mapfiles back
// into line-by-line, per-thread execution histories, with call
// hierarchy, exception trimming, cross-thread interleaving, and
// (in distrib.go) cross-runtime/cross-machine logical-thread
// stitching.
package recon

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"traceback/internal/module"
	"traceback/internal/snap"
	"traceback/internal/trace"
)

// MapSet indexes mapfiles by module checksum, the key that ties trace
// metadata to instrumentation output (paper §2.3). A MapSet is not
// synchronized: build it fully (NewMapSet / Add) before sharing it
// across goroutines, after which concurrent ForChecksum calls are
// safe. For lazy, concurrent loading use MapCache instead.
type MapSet struct {
	byChecksum map[string]*module.MapFile
}

// NewMapSet builds a MapSet.
func NewMapSet(maps ...*module.MapFile) *MapSet {
	s := &MapSet{byChecksum: map[string]*module.MapFile{}}
	for _, m := range maps {
		s.Add(m)
	}
	return s
}

// Add registers a mapfile.
func (s *MapSet) Add(m *module.MapFile) { s.byChecksum[m.Checksum] = m }

// ForChecksum returns the mapfile for a module checksum.
func (s *MapSet) ForChecksum(sum string) (*module.MapFile, bool) {
	m, ok := s.byChecksum[sum]
	return m, ok
}

// EventKind classifies reconstructed events.
type EventKind uint8

const (
	EvLine EventKind = iota
	EvException
	EvExceptionEnd
	EvSync
	EvSnapMark
	EvThreadStart
	EvThreadEnd
	EvBadDAG
	EvSyscall   // synchronization-point marker with resolved position
	EvTruncated // history older than this point was overwritten
)

func (k EventKind) String() string {
	switch k {
	case EvLine:
		return "line"
	case EvException:
		return "exception"
	case EvExceptionEnd:
		return "exception-end"
	case EvSync:
		return "sync"
	case EvSnapMark:
		return "snap"
	case EvThreadStart:
		return "thread-start"
	case EvThreadEnd:
		return "thread-end"
	case EvBadDAG:
		return "bad-dag"
	case EvSyscall:
		return "syscall"
	case EvTruncated:
		return "truncated"
	}
	return "?"
}

// Event is one entry of a reconstructed history.
type Event struct {
	Kind   EventKind
	Module string
	File   string
	Line   uint32
	Func   string
	Depth  int
	// Repeat counts consecutive re-executions of the same line
	// collapsed into this event (loops).
	Repeat int
	// Note carries human-oriented detail: call targets, signal names,
	// sync descriptions.
	Note string
	// TS is the last ordering anchor at or before this event (0 if
	// none); AnchorSeq disambiguates events sharing an anchor.
	TS        uint64
	AnchorSeq int
	// Sync is set for EvSync events.
	Sync *trace.Sync
	// Fault marks the line an exception record trimmed the trace at.
	Fault bool
	// CallTo is set on the line event that performs a call.
	CallTo string

	// runID identifies which DAG-record expansion produced a line
	// event, distinguishing real re-executions (loops, which bump
	// Repeat) from instrumentation redundancy within one expansion
	// (collapsed silently, paper §4.2).
	runID int
}

// ThreadTrace is one thread's reconstructed history, oldest first.
type ThreadTrace struct {
	TID    uint32
	Events []Event
	// Truncated is true when older history was overwritten (the
	// buffer wrapped) or lost to abrupt termination.
	Truncated bool
	// Faulted is true when the history ends in an exception record.
	Faulted bool
}

// ProcessTrace is a whole process's reconstruction.
type ProcessTrace struct {
	Snap    *snap.Snap
	Threads []*ThreadTrace
	// Unrecoverable counts buffers whose data could not be mined
	// (desperation sharing, no known write pointer on a plain ring).
	Unrecoverable int
}

// ThreadByTID finds a thread's trace.
func (pt *ProcessTrace) ThreadByTID(tid uint32) (*ThreadTrace, bool) {
	for _, t := range pt.Threads {
		if t.TID == tid {
			return t, true
		}
	}
	return nil, false
}

// Reconstruct rebuilds per-thread histories from a snap and its
// mapfiles. This is the sequential path — the oracle the parallel
// Pipeline must match byte for byte.
func Reconstruct(s *snap.Snap, maps MapResolver) (*ProcessTrace, error) {
	pt := &ProcessTrace{Snap: s}
	for bi := range s.Buffers {
		plan := mineBuffer(&s.Buffers[bi])
		pt.Unrecoverable += plan.unrecoverable
		for _, seg := range plan.segs {
			tt, err := expandSegment(s, maps, seg)
			if err != nil {
				return nil, err
			}
			tt.Truncated = tt.Truncated || plan.truncated
			pt.Threads = append(pt.Threads, tt)
		}
	}
	return pt, nil
}

// bufferPlan is the mined, thread-split content of one buffer — the
// output of the mining stage, ready for per-segment expansion.
type bufferPlan struct {
	segs          []segment
	truncated     bool
	unrecoverable int
	recordsMined  int
}

// mineBuffer recovers one buffer's record stream and splits it by
// thread. It is a pure function of the buffer dump (no shared state),
// which is what lets the pipeline mine buffers concurrently.
func mineBuffer(b *snap.BufferDump) bufferPlan {
	var plan bufferPlan
	switch b.Kind {
	case snap.BufProbation:
		return plan
	case snap.BufDesperation:
		if !b.LastKnown {
			// Shared unsynchronized writes are unrecoverable —
			// but an untouched desperation buffer is just empty.
			if b.OwnerTID != 0 || hasData(b.Raw) {
				plan.unrecoverable++
			}
			return plan
		}
	}
	recs, truncated, ok := MineBuffer(b)
	if !ok {
		if b.OwnerTID != 0 {
			plan.unrecoverable++
		}
		return plan
	}
	if len(recs) == 0 {
		return plan
	}
	plan.truncated = truncated
	plan.recordsMined = len(recs)
	plan.segs = splitByThread(recs, b.OwnerTID)
	return plan
}

// lineForAddr resolves an absolute code address to (module, file,
// line) via the snap's module table and the mapfiles' line spans.
func lineForAddr(s *snap.Snap, maps MapResolver, addr uint64) (mod, file string, line uint32, ok bool) {
	mi, ok := s.ModuleForAddr(addr)
	if !ok {
		return "", "", 0, false
	}
	mf, ok := maps.ForChecksum(mi.Checksum)
	if !ok {
		return mi.Name, "", 0, false
	}
	rel := uint32(addr - uint64(mi.CodeBase))
	for di := range mf.DAGs {
		for bi := range mf.DAGs[di].Blocks {
			b := &mf.DAGs[di].Blocks[bi]
			if rel < b.Start || rel >= b.End {
				continue
			}
			for _, ls := range b.Lines {
				if rel >= ls.Start && rel < ls.End {
					return mi.Name, ls.File, ls.Line, true
				}
			}
		}
	}
	return mi.Name, "", 0, false
}

// MineBuffer mines one buffer dump straight off its raw bytes and
// returns its records oldest first. The buffer is read as its logical
// span: the ring rotated so the newest record ends it, with the
// sub-buffer boundary slots removed BY POSITION (paper §4.1:
// boundaries are removed to produce a contiguous span; stripping by
// value would destroy payload words that happen to equal the sentinel
// pattern, e.g. the high half of a large timestamp). For a known
// write pointer the newest record is at LastPtr; otherwise the
// committed-sub-buffer header plus the zeroed-frontier scan recovers
// the dead thread's progress (paper §3.2).
//
// Only the words the miner visits are decoded, so the cost follows the
// live records, not the buffer's capacity; the remaining O(capacity)
// work is plain byte scans for zero words. truncated reports that the
// buffer wrapped and lost older history (false when nothing was
// mined); ok is false when the buffer has no recoverable span.
func MineBuffer(b *snap.BufferDump) (recs []trace.Record, truncated, ok bool) {
	n := len(b.Raw) / 4
	sub := int(b.SubWords)
	var newest int
	switch {
	case n == 0:
		return nil, false, false
	case b.LastKnown:
		newest = int(b.LastPtr)
		if newest >= n {
			return nil, false, false
		}
	case sub == 0 || sub >= n:
		// Plain ring with no commit points and no pointer:
		// unrecoverable.
		return nil, false, false
	default:
		lo := (int(b.CommittedSub) + 1) % (n / sub) * sub
		// Exclude the open sub-buffer's sentinel slot.
		newest = lastData(b.Raw, lo, min(lo+sub-1, n))
		if newest < 0 {
			// Nothing in the open sub-buffer: newest is the end of
			// the committed one.
			newest = lo - 1
			if newest < 0 {
				newest = n - 1
			}
		}
	}
	// The span starts just after the newest word, which ends it.
	sp := span{raw: b.Raw, sub: sub, n: nonBoundary(n, sub), first: nonBoundary(newest+1, sub)}
	if sp.first == 0 {
		return nil, false, false // only boundary slots up to newest
	}
	recs = trace.MineBackwardAt(sp.n, sp.at)
	if len(recs) == 0 {
		return nil, false, true
	}
	trace.Reverse(recs)
	// The buffer wrapped (and thus lost history) if anything nonzero
	// follows the newest word, i.e. precedes the span's logical start.
	return recs, !zeroAfter(b.Raw, newest+1, sub), true
}

// span is a buffer's logical span read in place: span index k
// (0 oldest) is non-boundary word first+k (mod n), and non-boundary
// word j is physical word j + j/(sub-1), skipping the boundary slot
// that ends every sub-buffer of sub words.
type span struct {
	raw   []byte
	sub   int // words per sub-buffer, boundary slot included; 0: none
	n     int // non-boundary words
	first int // non-boundary index of the oldest span word
}

// nonBoundary counts the non-boundary words among the first m.
func nonBoundary(m, sub int) int {
	if sub > 0 {
		m -= m / sub
	}
	return m
}

func (s *span) at(k int) trace.Word {
	j := s.first + k
	if j >= s.n {
		j -= s.n
	}
	if s.sub > 0 {
		j += j / (s.sub - 1)
	}
	return binary.LittleEndian.Uint32(s.raw[4*j:])
}

// zeroPage is the all-Invalid block the byte scans compare against.
var zeroPage [4096]byte

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for len(b) > 0 {
		k := min(len(b), len(zeroPage))
		if !bytes.Equal(b[:k], zeroPage[:k]) {
			return false
		}
		b = b[k:]
	}
	return true
}

// isData reports whether w was written by a probe: neither a zeroed
// slot nor a sentinel.
func isData(w trace.Word) bool { return w != trace.Invalid && w != trace.Sentinel }

// hasData reports whether any non-sentinel word was ever written.
func hasData(raw []byte) bool {
	for off := 0; off+4 <= len(raw); off += len(zeroPage) {
		chunk := raw[off:min(off+len(zeroPage), len(raw)/4*4)]
		if allZero(chunk) {
			continue
		}
		for i := 0; i < len(chunk); i += 4 {
			if isData(binary.LittleEndian.Uint32(chunk[i:])) {
				return true
			}
		}
	}
	return false
}

// lastData returns the index of the last word in [lo, hi) that holds
// data, or -1.
func lastData(raw []byte, lo, hi int) int {
	for hi > lo {
		k := max(lo, hi-len(zeroPage)/4)
		if !allZero(raw[4*k : 4*hi]) {
			for i := hi - 1; i >= k; i-- {
				if isData(binary.LittleEndian.Uint32(raw[4*i:])) {
					return i
				}
			}
		}
		hi = k
	}
	return -1
}

// zeroAfter reports whether every non-boundary word from index from
// on is zero.
func zeroAfter(raw []byte, from, sub int) bool {
	n := len(raw) / 4
	for from < n {
		end := n
		if sub > 0 {
			end = min(n, (from/sub+1)*sub-1)
		}
		if !allZero(raw[4*from : 4*end]) {
			return false
		}
		from = end + 1
	}
	return true
}

// segment is a run of records belonging to one thread.
type segment struct {
	tid  uint32
	recs []trace.Record
}

// splitByThread partitions a buffer's record stream at thread
// start/end records (buffers house several thread lifetimes in
// sequence, paper §3.1.2).
func splitByThread(recs []trace.Record, ownerTID uint32) []segment {
	var segs []segment
	cur := segment{tid: 0}
	flush := func() {
		if len(cur.recs) > 0 {
			segs = append(segs, cur)
		}
	}
	for _, r := range recs {
		switch r.Kind {
		case trace.KindThreadStart:
			flush()
			ev, err := trace.DecodeThreadEvent(r)
			cur = segment{recs: []trace.Record{r}}
			if err == nil {
				cur.tid = ev.TID
			}
		case trace.KindThreadEnd:
			// A wrapped buffer may have lost its ThreadStart; the
			// termination record still identifies the owner.
			if cur.tid == 0 {
				if ev, err := trace.DecodeThreadEvent(r); err == nil {
					cur.tid = ev.TID
				}
			}
			cur.recs = append(cur.recs, r)
			flush()
			cur = segment{tid: 0}
		default:
			cur.recs = append(cur.recs, r)
		}
	}
	flush()
	// Records before the first ThreadStart belong to an earlier,
	// partially overwritten lifetime; if there is exactly one
	// headless segment and we know the owner, attribute it.
	if len(segs) > 0 && segs[0].tid == 0 && ownerTID != 0 {
		headless := true
		for _, r := range segs[0].recs {
			if r.Kind == trace.KindThreadStart {
				headless = false
			}
		}
		if headless && len(segs) == 1 {
			segs[0].tid = ownerTID
		}
	}
	return segs
}

// resolveDAG maps a rebased DAG ID to (module info, mapfile DAG,
// managed flag).
func resolveDAG(s *snap.Snap, maps MapResolver, id uint32) (snap.ModuleInfo, *module.MapDAG, bool, error) {
	mi, rel, ok := s.ModuleForDAG(id)
	if !ok {
		return mi, nil, false, fmt.Errorf("recon: DAG ID %d matches no module range", id)
	}
	mf, ok := maps.ForChecksum(mi.Checksum)
	if !ok {
		return mi, nil, false, fmt.Errorf("recon: no mapfile for module %s (checksum %s)", mi.Name, mi.Checksum)
	}
	d, ok := mf.DAGByID(rel)
	if !ok {
		return mi, nil, false, fmt.Errorf("recon: module %s has no DAG %d", mi.Name, rel)
	}
	return mi, d, mf.Managed, nil
}
