package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"traceback/internal/snap"
)

func TestWriteSnapKeepsEarlierSnaps(t *testing.T) {
	dir := t.TempDir()
	// A snap an earlier run left behind, not yet uploaded.
	old := filepath.Join(dir, "app-1.snap.json")
	if err := os.WriteFile(old, []byte("earlier run"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &snap.Snap{Process: "app", Reason: "api", Buffers: []snap.BufferDump{{Raw: make([]byte, 64)}}}
	n := 0
	var paths []string
	for i := 0; i < 2; i++ {
		p, err := writeSnap(dir, &n, s)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, filepath.Base(p))
	}
	if paths[0] != "app-2.snap.json" || paths[1] != "app-3.snap.json" {
		t.Fatalf("wrote %v, want [app-2.snap.json app-3.snap.json]", paths)
	}
	if got, _ := os.ReadFile(old); string(got) != "earlier run" {
		t.Fatalf("earlier snap replaced: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("dir holds %d entries, want 3 (temp files left behind?)", len(entries))
	}
	var want bytes.Buffer
	if err := s.Save(&want); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		got, err := os.ReadFile(filepath.Join(dir, p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s does not hold the saved snap", p)
		}
		fi, err := os.Stat(filepath.Join(dir, p))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Errorf("%s: mode %v, want 0644", p, fi.Mode().Perm())
		}
	}
}

func TestWriteSnapReportsUnwritableDir(t *testing.T) {
	n := 0
	if _, err := writeSnap(filepath.Join(t.TempDir(), "missing"), &n, &snap.Snap{Process: "app"}); err == nil {
		t.Fatal("no error for a missing snap directory")
	}
}
