package recon

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"traceback/internal/snap"
	"traceback/internal/trace"
)

// refMine is the deliberately naive reference for MineBuffer. It works
// on the dense Words() copy of the whole buffer: a forward scan drops
// the sub-buffer boundary slots by position, the ring is rotated into a
// fresh slice, and refParse frames the records. Nothing is shared with
// MineBuffer but the record format.
func refMine(b *snap.BufferDump) (recs []trace.Record, truncated, ok bool) {
	words := b.Words()
	sub := int(b.SubWords)
	if len(words) == 0 {
		return nil, false, false
	}
	newest := -1
	if b.LastKnown {
		if int(b.LastPtr) >= len(words) {
			return nil, false, false
		}
		newest = int(b.LastPtr)
	} else {
		if sub == 0 || sub >= len(words) {
			return nil, false, false
		}
		lo := int((uint64(b.CommittedSub) + 1) % uint64(len(words)/sub) * uint64(sub))
		for i := lo; i < lo+sub-1 && i < len(words); i++ {
			if words[i] != trace.Invalid && words[i] != trace.Sentinel {
				newest = i
			}
		}
		if newest == -1 {
			newest = lo - 1
			if newest < 0 {
				newest = len(words) - 1
			}
		}
	}
	var older, newer []trace.Word // stripped words after / up to newest
	for i, w := range words {
		if sub > 0 && i%sub == sub-1 {
			continue
		}
		if i <= newest {
			newer = append(newer, w)
		} else {
			older = append(older, w)
		}
	}
	if len(newer) == 0 {
		return nil, false, false
	}
	recs = refParse(append(append([]trace.Word{}, older...), newer...))
	if len(recs) == 0 {
		return nil, false, true
	}
	for _, w := range older {
		if w != trace.Invalid {
			truncated = true
		}
	}
	return recs, truncated, true
}

// refParse frames a logical span into records, oldest first. Records
// are anchored at the newest word (a payload word may look like any
// other record word, so a plain left-to-right parse could frame them
// differently): one forward pass works out, for every word, where the
// record ending at that word would start, and the records are then
// read off the chain of starts from the newest word back.
func refParse(span []trace.Word) []trace.Record {
	const stop = -1
	start := make([]int, len(span))
	for e, w := range span {
		start[e] = stop
		switch {
		case w == 0:
		case w == 0xFFFFFFFF, w>>31 == 1: // sentinel, DAG record
			start[e] = e
		case w>>24 == 0x7F: // extended-record trailer
			n, kind := int(w>>16&0xFF), w&0xFF
			s := e - n + 1
			if kind == 0 || kind == 0x7F || n < 2 || s < 0 {
				break
			}
			if h := span[s]; h>>31 == 0 && h>>24 == kind && int(h>>16&0xFF) == n {
				start[e] = s
			}
		}
	}
	var recs []trace.Record
	for e := len(span) - 1; e >= 0 && start[e] != stop; e = start[e] - 1 {
		w, s := span[e], start[e]
		switch {
		case w == 0xFFFFFFFF:
		case w>>31 == 1:
			recs = append(recs, trace.Record{DAGID: w >> 10 & 0x1FFFFF, Bits: w & 0x3FF})
		default:
			r := trace.Record{Kind: trace.Kind(w & 0xFF), Small: uint16(span[s])}
			if e-s > 1 {
				r.Payload = append([]trace.Word(nil), span[s+1:e]...)
			}
			recs = append(recs, r)
		}
	}
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	return recs
}

// refPlan is mineBuffer rebuilt on refMine, with its own scan for
// data in an unrecoverable desperation buffer.
func refPlan(b *snap.BufferDump) bufferPlan {
	var plan bufferPlan
	switch b.Kind {
	case snap.BufProbation:
		return plan
	case snap.BufDesperation:
		if !b.LastKnown {
			written := false
			for _, w := range b.Words() {
				written = written || w != trace.Invalid && w != trace.Sentinel
			}
			if b.OwnerTID != 0 || written {
				plan.unrecoverable++
			}
			return plan
		}
	}
	recs, truncated, ok := refMine(b)
	if !ok {
		if b.OwnerTID != 0 {
			plan.unrecoverable++
		}
		return plan
	}
	if len(recs) > 0 {
		plan.truncated = truncated
		plan.recordsMined = len(recs)
		plan.segs = splitByThread(recs, b.OwnerTID)
	}
	return plan
}

func checkAgainstRef(t *testing.T, name string, b *snap.BufferDump) {
	t.Helper()
	recs, truncated, ok := MineBuffer(b)
	wrecs, wtruncated, wok := refMine(b)
	if ok != wok || truncated != wtruncated || !reflect.DeepEqual(recs, wrecs) {
		t.Fatalf("%s: MineBuffer = %d records, truncated %v, ok %v; reference = %d records, truncated %v, ok %v",
			name, len(recs), truncated, ok, len(wrecs), wtruncated, wok)
	}
	if got, want := mineBuffer(b), refPlan(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: mineBuffer plan = %+v, reference plan = %+v", name, got, want)
	}
}

// TestMineBufferMatchesReferenceOnCommittedSnaps: every buffer of every
// committed snap, the wrap-stress regression snaps included.
func TestMineBufferMatchesReferenceOnCommittedSnaps(t *testing.T) {
	var paths []string
	for _, pat := range []string{"../../snaps/*.snap.json.gz", "../../snaps/regressions/*.snap.json.gz"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no committed snaps found")
	}
	mined := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := snap.LoadAuto(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for i := range s.Buffers {
			checkAgainstRef(t, filepath.Base(p), &s.Buffers[i])
			recs, _, _ := MineBuffer(&s.Buffers[i])
			mined += len(recs)
		}
	}
	if mined == 0 {
		t.Fatal("committed snaps mined no records")
	}
}

// randomBuffer writes a random record stream into a ring the way the
// runtime does — boundary slots skipped, records straddling them,
// wrapping over older records — and dumps it with a random (sometimes
// lost, sometimes out-of-range) write pointer and commit header.
func randomBuffer(rng *rand.Rand) *snap.BufferDump {
	n := 1 + rng.Intn(300)
	sub := []int{0, 1, 2, 3, 5, 8, 16, n / 4, n, n + 1}[rng.Intn(10)]
	words := make([]trace.Word, n)
	boundary := func(i int) bool { return sub > 0 && i%sub == sub-1 }
	for i := range words {
		if boundary(i) {
			words[i] = trace.Sentinel
		}
	}
	// Payload words that look like record words: a sentinel, a trailer,
	// a DAG record, zero.
	payload := func() trace.Word {
		switch rng.Intn(5) {
		case 0:
			return trace.Sentinel
		case 1:
			return 0x7F<<24 | trace.Word(2+rng.Intn(5))<<16 | trace.Word(1+rng.Intn(9))
		case 2:
			return trace.DAGWord(rng.Uint32()%trace.MaxDAGID, rng.Uint32())
		case 3:
			return 0
		}
		return rng.Uint32()
	}
	last, p := -1, 0
	if sub != 1 {
		for k := rng.Intn(3 * n); k > 0; k-- {
			var rec []trace.Word
			switch rng.Intn(8) {
			case 0, 1, 2:
				rec = []trace.Word{trace.DAGWord(rng.Uint32()%trace.MaxDAGID, rng.Uint32())}
			case 3:
				rec = trace.AppendThreadStart(nil, uint32(1+rng.Intn(3)), rng.Uint64())
			case 4:
				rec = trace.AppendThreadEnd(nil, uint32(1+rng.Intn(3)), rng.Uint64())
			case 5:
				rec = trace.AppendExtended(nil, trace.Kind(1+rng.Intn(9)), uint16(rng.Uint32()), payload(), payload(), payload())
			case 6:
				rec = trace.AppendExtended(nil, trace.KindReissue, 0)
			case 7:
				rec = []trace.Word{rng.Uint32()} // corruption
			}
			for _, w := range rec {
				for boundary(p) {
					p = (p + 1) % n
				}
				words[p], last = w, p
				p = (p + 1) % n
			}
		}
	}
	b := &snap.BufferDump{
		Kind:      []snap.BufferKind{snap.BufMain, snap.BufMain, snap.BufMain, snap.BufStatic, snap.BufDesperation, snap.BufProbation}[rng.Intn(6)],
		OwnerTID:  uint32(rng.Intn(3)),
		LastKnown: rng.Intn(3) > 0,
		SubWords:  uint32(sub),
	}
	switch {
	case rng.Intn(10) == 0:
		b.LastPtr = uint32(n + rng.Intn(3))
	case last >= 0:
		b.LastPtr = uint32(last)
	}
	if sub > 0 {
		b.CommittedSub = uint32(rng.Intn(n/sub + 2))
	}
	if rng.Intn(20) == 0 {
		b.CommittedSub = rng.Uint32()
	}
	b.SetWords(words)
	if rng.Intn(10) == 0 {
		b.Raw = append(b.Raw, make([]byte, 1+rng.Intn(3))...) // not a whole word
	}
	return b
}

// TestMineBufferMatchesReferenceOnRandomBuffers covers what the
// committed snaps cannot: every wrap point, lost pointers with any
// committed sub-buffer, records straddling boundary slots, and payload
// words equal to the sentinel.
func TestMineBufferMatchesReferenceOnRandomBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		checkAgainstRef(t, "random buffer", randomBuffer(rng))
	}
}
