package archive

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"traceback/internal/snap"
)

// committedSnaps loads every snap committed under snaps/ and
// snaps/regressions/.
func committedSnaps(tb testing.TB) []*snap.Snap {
	tb.Helper()
	var out []*snap.Snap
	for _, pat := range []string{"../../snaps/*.snap.json.gz", "../../snaps/regressions/*.snap.json.gz"} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				tb.Fatal(err)
			}
			s, err := snap.LoadAuto(f)
			f.Close()
			if err != nil {
				tb.Fatalf("%s: %v", p, err)
			}
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		tb.Fatal("no committed snaps found")
	}
	return out
}

// TestChecksumSnapAllocs: content-addressing a snap allocates its
// canonical document once, at its exact size, and nothing else of
// note — no growing buffer, no second copy.
func TestChecksumSnapAllocs(t *testing.T) {
	s := committedSnaps(t)[0]
	_, canonical, _ := ChecksumSnap(s)
	// The document, the hex digest, and the digest's string.
	if n := testing.AllocsPerRun(10, func() { ChecksumSnap(s) }); n > 3 {
		t.Errorf("ChecksumSnap: %v allocations, want at most 3", n)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ChecksumSnap(s)
	}
	runtime.ReadMemStats(&after)
	// A large allocation rounds up to whole 8 KiB pages.
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(len(canonical)) + 8<<10 + 256; perRun > limit {
		t.Errorf("ChecksumSnap allocates %d bytes for a %d-byte document, want at most %d", perRun, len(canonical), limit)
	}
}

func BenchmarkChecksumSnap(b *testing.B) {
	snaps := committedSnaps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ChecksumSnap(snaps[i%len(snaps)])
	}
}
