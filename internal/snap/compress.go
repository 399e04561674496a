package snap

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The paper notes that trace buffers are "readily compressible by a
// factor of 10 or more for ease of archiving or transmission": DAG
// records repeat heavily (hot loops re-record the same header word).
// SaveCompressed/LoadAuto provide that archival form.

// Load-error classes, matchable with errors.Is. Archival tooling
// (the snap warehouse, batch reconstruction) dispatches on these to
// tell a corrupt transfer from an empty file from a snap with junk
// appended, instead of pattern-matching raw decoder messages.
var (
	// ErrEmpty: the input held no bytes at all.
	ErrEmpty = errors.New("empty snap input")
	// ErrTruncated: the input ended mid-stream (cut-short gzip body or
	// JSON document — the footprint of an interrupted copy).
	ErrTruncated = errors.New("truncated snap input")
	// ErrTrailingData: a complete gzip member was followed by further
	// bytes (a second member or appended garbage); the snap archival
	// form is exactly one member.
	ErrTrailingData = errors.New("trailing data after snap")
)

// SaveCompressed writes the snap as gzip-compressed JSON.
func (s *Snap) SaveCompressed(w io.Writer) error {
	zw, err := gzip.NewWriterLevel(w, gzip.BestCompression)
	if err != nil {
		return err
	}
	if err := s.Save(zw); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// LoadAuto reads a snap in either plain-JSON or gzip form, sniffing
// the magic bytes. Gzip input must be a single complete member, and
// either form must hold exactly one document: truncation and trailing
// garbage are reported as wrapped ErrTruncated / ErrTrailingData rather
// than raw decoder failures.
func LoadAuto(r io.Reader) (*Snap, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil && len(magic) == 0 {
		if err == io.EOF {
			return nil, fmt.Errorf("snap: %w", ErrEmpty)
		}
		return nil, fmt.Errorf("snap: %w", err)
	}
	if IsGzip(magic) {
		return loadGzip(br)
	}
	s, err := Load(br)
	if err != nil {
		return nil, classifyErr(err)
	}
	return s, nil
}

// IsGzip reports whether data starts with the gzip magic, the test
// LoadAuto sniffs its input's form by.
func IsGzip(data []byte) bool { return len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b }

func loadGzip(br *bufio.Reader) (*Snap, error) {
	// The archival form is small (a few KB per snap), so read it whole:
	// its trailer then sizes the document buffer up front, and the
	// bytes left after the member are plain to see.
	z, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", classifyErr(err))
	}
	in := bytes.NewReader(z)
	zr, err := gzip.NewReader(in)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", classifyErr(err))
	}
	defer zr.Close()
	// One member only: appended garbage (or a second member) must not
	// be silently swallowed by gzip's multistream default. load reads
	// the member to its end, which checks the trailer (CRC/length)
	// where a truncated body surfaces.
	zr.Multistream(false)
	s, err := load(zr, inflatedSize(z))
	if err != nil {
		return nil, fmt.Errorf("gzip member: %w", classifyErr(err))
	}
	if in.Len() > 0 {
		return nil, fmt.Errorf("snap: %w", ErrTrailingData)
	}
	return s, nil
}

// Bounds on the size hint: deflate expands its input at most maxInflate
// times, and no hint exceeds maxSizeHint (20x a default-config snap), so
// a few bytes claiming a huge ISIZE cannot make the reader allocate
// far ahead of the data it actually inflates.
const (
	maxInflate  = 1032
	maxSizeHint = 16 << 20
)

// inflatedSize reads a gzip member's inflated size from its trailer
// (ISIZE, the size mod 2^32) as a capacity hint: a wrong value costs
// buffer growth, never correctness.
func inflatedSize(z []byte) int {
	if len(z) < 18 { // 10-byte header + 8-byte trailer
		return 0
	}
	return min(int(binary.LittleEndian.Uint32(z[len(z)-4:])), maxInflate*len(z), maxSizeHint)
}

// classifyErr folds the decoders' raw end-of-stream errors into the
// inspectable ErrTruncated class; anything else (bad header, corrupt
// flate data, invalid JSON) passes through wrapped as-is.
func classifyErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}
