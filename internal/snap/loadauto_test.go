package snap

import (
	"bytes"
	"compress/gzip"
	"errors"
	"strings"
	"testing"
)

func testSnap() *Snap {
	return &Snap{
		Host: "h", Process: "p", PID: 1, RuntimeID: 42, Reason: "api", Time: 99,
		Buffers: []BufferDump{{Kind: BufMain, OwnerTID: 1, LastPtr: 0, LastKnown: true,
			SubWords: 4, Raw: []byte{1, 0, 0, 0}}},
	}
}

func gzipped(t *testing.T, s *Snap) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveCompressed(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadAutoEmptyInput(t *testing.T) {
	_, err := LoadAuto(strings.NewReader(""))
	if !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestLoadAutoTruncatedGzip(t *testing.T) {
	z := gzipped(t, testSnap())
	// Cut at several depths: inside the header, inside the deflate
	// body, and inside the 8-byte CRC/size trailer.
	for _, cut := range []int{3, len(z) / 2, len(z) - 4} {
		_, err := LoadAuto(bytes.NewReader(z[:cut]))
		if err == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestLoadAutoTrailingGarbage(t *testing.T) {
	z := gzipped(t, testSnap())
	for name, tail := range map[string][]byte{
		"junk":          []byte("EXTRA BYTES"),
		"second-member": gzipped(t, testSnap()),
	} {
		_, err := LoadAuto(bytes.NewReader(append(append([]byte(nil), z...), tail...)))
		if !errors.Is(err, ErrTrailingData) {
			t.Errorf("%s: err = %v, want ErrTrailingData", name, err)
		}
	}
}

func TestLoadAutoGzipNonJSON(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("not json at all"))
	zw.Close()
	_, err := LoadAuto(&buf)
	if err == nil {
		t.Fatal("no error for gzip-wrapped non-JSON")
	}
	if errors.Is(err, ErrTruncated) || errors.Is(err, ErrTrailingData) || errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v misclassified; want a plain decode failure", err)
	}
}

func TestLoadAutoCompleteMemberStillLoads(t *testing.T) {
	s, err := LoadAuto(bytes.NewReader(gzipped(t, testSnap())))
	if err != nil {
		t.Fatal(err)
	}
	if s.RuntimeID != 42 {
		t.Fatalf("RuntimeID = %d, want 42", s.RuntimeID)
	}
}

func TestLoadAutoOneBytePlain(t *testing.T) {
	// A single non-gzip byte is not empty, not gzip: it must fall to
	// the plain-JSON path and fail there without panicking.
	_, err := LoadAuto(strings.NewReader("{"))
	if err == nil {
		t.Fatal("no error for bare '{'")
	}
	if errors.Is(err, ErrEmpty) {
		t.Error("bare '{' misclassified as empty")
	}
}

func TestLoadAutoPlainTrailingData(t *testing.T) {
	_, err := LoadAuto(strings.NewReader(`{"host":"h"}garbage`))
	if !errors.Is(err, ErrTrailingData) {
		t.Fatalf("err = %v, want ErrTrailingData", err)
	}
	// Save ends its document with a newline: trailing whitespace is
	// part of the format.
	s, err := LoadAuto(strings.NewReader("{\"host\":\"h\"} \n\t\r\n"))
	if err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}
	if s.Host != "h" {
		t.Fatalf("Host = %q, want h", s.Host)
	}
}

func TestLoadAutoPlainTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := testSnap().Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	for _, cut := range []int{1, len(doc) / 2, len(doc) - 2} {
		_, err := LoadAuto(bytes.NewReader(doc[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestLoadAutoGzipMemberTrailingData(t *testing.T) {
	// Junk inside the member, after the document, is trailing data too.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(`{"host":"h"}garbage`))
	zw.Close()
	if _, err := LoadAuto(&buf); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("err = %v, want ErrTrailingData", err)
	}
}
