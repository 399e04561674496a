package snap

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// committedSnapFiles lists every snap committed under snaps/ and
// snaps/regressions/.
func committedSnapFiles(tb testing.TB) []string {
	tb.Helper()
	var paths []string
	for _, pat := range []string{"../../snaps/*.snap.json.gz", "../../snaps/regressions/*.snap.json.gz"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			tb.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		tb.Fatal("no committed snaps found")
	}
	return paths
}

// committedSnaps returns the inflated JSON of every committed snap.
func committedSnaps(tb testing.TB) map[string][]byte {
	tb.Helper()
	docs := map[string][]byte{}
	for _, p := range committedSnapFiles(tb) {
		f, err := os.Open(p)
		if err != nil {
			tb.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			tb.Fatal(err)
		}
		doc, err := io.ReadAll(zr)
		f.Close()
		if err != nil {
			tb.Fatal(err)
		}
		docs[filepath.Base(p)] = doc
	}
	return docs
}

// checkDecode holds the snap decoder to encoding/json, the reference:
// both reject, or both accept with deeply equal snaps. Where the
// reference fails on a cut-short document or on bytes after it, the
// decoder must say so in its own classes. (The decoder also reports a
// literal cut short, such as a final "tru", as io.ErrUnexpectedEOF, as
// json.Decoder does; Unmarshal calls that a bad character.)
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var want Snap
	werr := json.Unmarshal(data, &want)
	got, gerr := decode(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("encoding/json err = %v, decoder err = %v", werr, gerr)
	}
	if werr != nil {
		var syn *json.SyntaxError
		isSyn := errors.As(werr, &syn)
		eof := errors.Is(gerr, io.ErrUnexpectedEOF)
		if isSyn && syn.Error() == "unexpected end of JSON input" && !eof || eof && !isSyn {
			t.Fatalf("encoding/json err = %v, decoder err = %v: truncation classified differently", werr, gerr)
		}
		if trail := isSyn && strings.HasSuffix(syn.Error(), "after top-level value"); trail != errors.Is(gerr, ErrTrailingData) {
			t.Fatalf("encoding/json err = %v, decoder err = %v: trailing data classified differently", werr, gerr)
		}
		return
	}
	if !reflect.DeepEqual(&want, got) {
		t.Fatalf("decoded snaps differ:\nencoding/json: %#v\ndecoder:       %#v", &want, got)
	}
}

// FuzzSnapDecode is the differential check of the snap decoder against
// encoding/json. Its seeds are every committed snap plus the schema's
// edge cases under testdata/fuzz/FuzzSnapDecode: escapes, nulls,
// unknown, nested, duplicate and case-folded keys, out-of-range and
// float numbers, and newlines inside base64.
func FuzzSnapDecode(f *testing.F) {
	for _, doc := range committedSnaps(f) {
		f.Add(doc)
	}
	f.Fuzz(checkDecode)
}

// TestDecodeCommittedSnapsCutShort: every committed snap, cut at many
// depths, is reported as truncated, as the reference reports it.
func TestDecodeCommittedSnapsCutShort(t *testing.T) {
	for name, doc := range committedSnaps(t) {
		for _, cut := range []int{1, 2, 10, 100, len(doc) / 3, len(doc) / 2, len(doc) - 3, len(doc) - 2} {
			if _, err := decode(doc[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s cut at %d: err = %v, want io.ErrUnexpectedEOF", name, cut, err)
			}
		}
	}
}

func TestDecodeDeepNesting(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		doc := `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + "}"
		checkDecode(t, []byte(doc))
	}
}

func TestDecodeBase64Runs(t *testing.T) {
	// Live bytes between, inside and at the ends of long zero runs, with
	// every padding length: the run-skipping decoder must place them
	// where base64.StdEncoding would.
	for _, n := range []int{0, 1, 2, 3, 190, 191, 192, 193, 194, 600, 601, 602} {
		for _, live := range [][]int{nil, {0}, {n - 1}, {n / 2}, {0, n / 3, n - 1}} {
			raw := make([]byte, n)
			for _, i := range live {
				if i >= 0 && i < n {
					raw[i] = byte(i*7 + 1)
				}
			}
			doc, err := json.Marshal(&Snap{Buffers: []BufferDump{{Raw: raw}}})
			if err != nil {
				t.Fatal(err)
			}
			checkDecode(t, doc)
			s, err := decode(doc)
			if err != nil {
				t.Fatalf("n=%d live=%v: %v", n, live, err)
			}
			if !bytes.Equal(s.Buffers[0].Raw, raw) {
				t.Fatalf("n=%d live=%v: raw bytes differ", n, live)
			}
		}
	}
}

func BenchmarkLoadAutoCommitted(b *testing.B) {
	var files [][]byte
	for _, p := range committedSnapFiles(b) {
		z, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, z)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadAuto(bytes.NewReader(files[i%len(files)])); err != nil {
			b.Fatal(err)
		}
	}
}
