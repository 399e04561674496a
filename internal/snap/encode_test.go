package snap

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// checkEncode holds Save and Canonical to encoding/json, the reference:
// for a snap s, both must give exactly json.NewEncoder(w).Encode(s),
// and Canonical must fill its allocation to the byte.
func checkEncode(t *testing.T, s *Snap) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(s); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := s.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Save differs from encoding/json:\nencoding/json: %.400q\nSave:          %.400q", want.Bytes(), got.Bytes())
	}
	c := s.Canonical()
	if !bytes.Equal(c, want.Bytes()) {
		t.Fatalf("Canonical differs from encoding/json:\nencoding/json: %.400q\nCanonical:     %.400q", want.Bytes(), c)
	}
	if cap(c) != len(c) {
		t.Fatalf("Canonical: len %d, cap %d; want an exactly-sized document", len(c), cap(c))
	}
}

// corpusFiles reads a fuzz target's committed seed corpus.
func corpusFiles(tb testing.TB, target string) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		arg, ok := strings.CutPrefix(string(b), "go test fuzz v1\n[]byte(")
		if !ok {
			tb.Fatalf("%s: not a one-[]byte fuzz corpus file", p)
		}
		v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(arg), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(v))
	}
	return out
}

// FuzzSnapEncode is the differential check of the snap encoder against
// encoding/json: every snap the reference decoder accepts must encode
// to the same bytes both ways. The input itself also rides in as a
// string and a raw buffer, since decoded strings are always valid
// UTF-8. Seeds: every committed snap, FuzzSnapDecode's corpus, and the
// encoder's edge cases under testdata/fuzz/FuzzSnapEncode (HTML
// characters and line separators, nil against empty slices, raw
// lengths and zero runs around the base64 chunk size, a nondet
// section).
func FuzzSnapEncode(f *testing.F) {
	for _, doc := range committedSnaps(f) {
		f.Add(doc)
	}
	for _, doc := range corpusFiles(f, "FuzzSnapDecode") {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snap
		if json.Unmarshal(data, &s) == nil {
			checkEncode(t, &s)
		}
		checkEncode(t, &Snap{Host: string(data), Buffers: []BufferDump{{Raw: data}}})
	})
}

func TestEncodeCommittedSnaps(t *testing.T) {
	for name, doc := range committedSnaps(t) {
		s, err := decode(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c := s.Canonical(); !bytes.Equal(c, doc) {
			t.Errorf("%s: Canonical does not reproduce the committed document", name)
		}
		checkEncode(t, s)
	}
}

func TestEncodeStrings(t *testing.T) {
	for _, str := range []string{
		"", "plain", `<a href="x">&amp;</a>`, "  ", "\x00\x01\x1f\x7f\b\f\n\r\t\\/\"",
		"\xff\xfe", "\xed\xa0\x80", "\xc3", "é😀\xf0\x9f", strings.Repeat("a<\xff", 5000),
	} {
		checkEncode(t, &Snap{Host: str, Reason: str, Modules: []ModuleInfo{{Name: str}},
			Nondet: &NondetLog{Scenario: str}})
	}
}

// errWriter fails every write after the first n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return w.n, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

func TestSaveReportsWriteError(t *testing.T) {
	s := &Snap{Buffers: []BufferDump{{Raw: make([]byte, 4*saveScratch)}}}
	if err := s.Save(&errWriter{n: saveScratch + 1}); err != io.ErrShortWrite {
		t.Fatalf("err = %v, want io.ErrShortWrite", err)
	}
}

func BenchmarkSaveCommitted(b *testing.B) {
	var snaps []*Snap
	for _, doc := range committedSnaps(b) {
		s, err := decode(doc)
		if err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snaps[i%len(snaps)].Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
