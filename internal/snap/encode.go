package snap

import (
	"encoding/base64"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The snap writer is the dual of decode.go: an encoder written for the
// Snap schema alone. Its output is byte for byte what
// json.NewEncoder(w).Encode(s) writes — struct field order, omitempty,
// null for nil slices and "" or [] for empty ones, HTML-safe string
// escaping (<, >, & as \u003c and so on), U+2028/U+2029 escaped,
// invalid UTF-8 as \ufffd, and the trailing newline — so the canonical
// SHA-256 (§9), blobs, signatures and shard placement do not depend on
// which of the two wrote a snap. FuzzSnapEncode holds it to that
// reference.
//
// Raw buffers are ~0.1% live words, so base64 is written in 3-byte-
// aligned chunks and an all-zero chunk is copied from zeroQuads instead
// of being encoded: the base64 work follows the live words.
//
// One walk serves two passes. The sizing pass only counts, so Canonical
// can allocate the document exactly once; the writing pass fills that
// allocation, or streams through a fixed scratch buffer for Save.

// zeroChunk is the raw bytes one zeroQuads block encodes.
const zeroChunk = 192

var zeroChunkBytes = strings.Repeat("\x00", zeroChunk)

// saveScratch is Save's buffer size; it must hold a whole zeroQuads
// block.
const saveScratch = 8 << 10

type encoder struct {
	// sizing: count the document's length in n and write nothing.
	sizing bool
	n      int
	// buf holds output not yet flushed; it never grows past its
	// capacity. With w nil it is the exactly-sized document itself.
	buf []byte
	w   io.Writer
	err error // first error from w; later writes are dropped
}

// Canonical returns the snap's JSON document exactly as Save writes it
// (the bytes its content address is computed over), in one allocation
// of exactly its size.
func (s *Snap) Canonical() []byte {
	sz := encoder{sizing: true}
	sz.snap(s)
	e := encoder{buf: make([]byte, 0, sz.n)}
	e.snap(s)
	return e.buf
}

// Save writes the snap as one JSON document and a newline, byte for
// byte as encoding/json would.
func (s *Snap) Save(w io.Writer) error {
	e := encoder{buf: make([]byte, 0, saveScratch), w: w}
	e.snap(s)
	e.flush()
	return e.err
}

func (e *encoder) flush() {
	if e.w == nil {
		panic("snap: encoder overran its exactly-sized buffer")
	}
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// put appends p, flushing as the buffer fills.
func put[T string | []byte](e *encoder, p T) {
	if e.sizing {
		e.n += len(p)
		return
	}
	for len(p) > 0 {
		if len(e.buf) == cap(e.buf) {
			e.flush()
		}
		k := copy(e.buf[len(e.buf):cap(e.buf)], p)
		e.buf = e.buf[:len(e.buf)+k]
		p = p[k:]
	}
}

func (e *encoder) uint(v uint64) {
	var b [20]byte
	put(e, strconv.AppendUint(b[:0], v, 10))
}

func (e *encoder) int(v int) {
	var b [20]byte
	put(e, strconv.AppendInt(b[:0], int64(v), 10))
}

func (e *encoder) bool(v bool) {
	if v {
		put(e, "true")
	} else {
		put(e, "false")
	}
}

const hexDigits = "0123456789abcdef"

// str writes s as a JSON string, escaped as encoding/json escapes it.
func (e *encoder) str(s string) {
	put(e, `"`)
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			put(e, s[start:i])
			switch c {
			case '"', '\\':
				put(e, []byte{'\\', c})
			case '\b':
				put(e, `\b`)
			case '\f':
				put(e, `\f`)
			case '\n':
				put(e, `\n`)
			case '\r':
				put(e, `\r`)
			case '\t':
				put(e, `\t`)
			default:
				put(e, []byte{'\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF]})
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			put(e, s[start:i])
			put(e, `\ufffd`)
		case r == '\u2028' || r == '\u2029':
			put(e, s[start:i])
			put(e, []byte{'\\', 'u', '2', '0', '2', hexDigits[r&0xF]})
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	put(e, s[start:])
	put(e, `"`)
}

// bytes writes a []byte field: null when nil, else a standard base64
// string.
func (e *encoder) bytes(b []byte) {
	if b == nil {
		put(e, "null")
		return
	}
	if e.sizing {
		e.n += 2 + base64.StdEncoding.EncodedLen(len(b))
		return
	}
	put(e, `"`)
	for len(b) > 0 {
		k := min(len(b), zeroChunk)
		n := base64.StdEncoding.EncodedLen(k)
		if cap(e.buf)-len(e.buf) < n {
			e.flush()
		}
		out := e.buf[len(e.buf) : len(e.buf)+n]
		if string(b[:k]) == zeroChunkBytes {
			copy(out, zeroQuads)
		} else {
			base64.StdEncoding.Encode(out, b[:k])
		}
		e.buf = e.buf[:len(e.buf)+n]
		b = b[k:]
	}
	put(e, `"`)
}

// array writes n elements, or null when nil is set.
func (e *encoder) array(isNil bool, n int, elem func(i int)) {
	if isNil {
		put(e, "null")
		return
	}
	put(e, "[")
	for i := 0; i < n; i++ {
		if i > 0 {
			put(e, ",")
		}
		elem(i)
	}
	put(e, "]")
}

// The per-type writers list each struct's members in declaration
// order, under their JSON names and omitempty rules.

func (e *encoder) snap(s *Snap) {
	put(e, `{"host":`)
	e.str(s.Host)
	put(e, `,"process":`)
	e.str(s.Process)
	put(e, `,"pid":`)
	e.int(s.PID)
	put(e, `,"runtimeId":`)
	e.uint(s.RuntimeID)
	put(e, `,"reason":`)
	e.str(s.Reason)
	if s.TriggerTID != 0 {
		put(e, `,"triggerTid":`)
		e.uint(uint64(s.TriggerTID))
	}
	if s.Signal != 0 {
		put(e, `,"signal":`)
		e.int(s.Signal)
	}
	if s.FaultAddr != 0 {
		put(e, `,"faultAddr":`)
		e.uint(s.FaultAddr)
	}
	put(e, `,"time":`)
	e.uint(s.Time)
	put(e, `,"modules":`)
	e.array(s.Modules == nil, len(s.Modules), func(i int) { e.module(&s.Modules[i]) })
	put(e, `,"buffers":`)
	e.array(s.Buffers == nil, len(s.Buffers), func(i int) { e.buffer(&s.Buffers[i]) })
	if len(s.Partners) > 0 {
		put(e, `,"partners":`)
		e.array(false, len(s.Partners), func(i int) { e.uint(s.Partners[i]) })
	}
	if s.Nondet != nil {
		put(e, `,"nondet":`)
		e.nondet(s.Nondet)
	}
	put(e, "}\n")
}

func (e *encoder) module(m *ModuleInfo) {
	put(e, `{"name":`)
	e.str(m.Name)
	put(e, `,"checksum":`)
	e.str(m.Checksum)
	put(e, `,"dagBase":`)
	e.uint(uint64(m.ActualDAGBase))
	put(e, `,"dagCount":`)
	e.uint(uint64(m.DAGCount))
	put(e, `,"codeBase":`)
	e.uint(uint64(m.CodeBase))
	put(e, `,"codeLen":`)
	e.uint(uint64(m.CodeLen))
	if m.Unloaded {
		put(e, `,"unloaded":true`)
	}
	if m.BadDAG {
		put(e, `,"badDag":true`)
	}
	if m.DataBase != 0 {
		put(e, `,"dataBase":`)
		e.uint(uint64(m.DataBase))
	}
	if len(m.DataDump) > 0 {
		put(e, `,"dataDump":`)
		e.bytes(m.DataDump)
	}
	put(e, "}")
}

func (e *encoder) buffer(b *BufferDump) {
	put(e, `{"kind":`)
	e.uint(uint64(b.Kind))
	put(e, `,"ownerTid":`)
	e.uint(uint64(b.OwnerTID))
	put(e, `,"lastPtr":`)
	e.uint(uint64(b.LastPtr))
	put(e, `,"lastKnown":`)
	e.bool(b.LastKnown)
	put(e, `,"committedSub":`)
	e.uint(uint64(b.CommittedSub))
	put(e, `,"subWords":`)
	e.uint(uint64(b.SubWords))
	put(e, `,"raw":`)
	e.bytes(b.Raw)
	put(e, "}")
}

func (e *encoder) nondet(n *NondetLog) {
	put(e, `{"v":`)
	e.int(n.V)
	put(e, `,"scenario":`)
	e.str(n.Scenario)
	if n.Wrap {
		put(e, `,"wrap":true`)
	}
	if n.Trial {
		put(e, `,"trial":true`)
	}
	put(e, `,"interval":`)
	e.uint(n.Interval)
	put(e, `,"raw":`)
	e.bytes(n.Raw)
	put(e, "}")
}
