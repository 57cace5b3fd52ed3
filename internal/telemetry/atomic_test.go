package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestWriteFileAtomicReplaces: a successful write replaces the previous
// contents whole, with the requested permissions, and leaves nothing else
// in the directory.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "attack.json")
	if err := os.WriteFile(path, []byte("old contents, longer than the new ones\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, []byte("new\n")) {
		t.Fatalf("after write: %q, %v; want %q", got, err, "new\n")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("after write: mode %v, %v; want 0644", fi.Mode().Perm(), err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v, want only attack.json", names)
	}
}

// TestWriteFileAtomicFailureLeavesNothing: when the final rename fails
// (the target is a non-empty directory) or the directory is missing, the
// write reports an error and leaves neither a partial artifact nor a
// temporary file behind; Manifest.WriteFile inherits the same guarantee.
func TestWriteFileAtomicFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "manifest.json")
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("{}\n"), 0o644); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	if err := NewManifest("testtool", nil).WriteFile(blocked); err == nil {
		t.Fatal("Manifest.WriteFile over a non-empty directory succeeded")
	}
	if fi, err := os.Stat(blocked); err != nil || !fi.IsDir() {
		t.Fatalf("target replaced by a failed write: %v, %v", fi, err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "attack.json"), []byte("{}\n"), 0o644); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "manifest.json" {
		t.Fatalf("failed writes left %v behind, want only the pre-existing manifest.json directory", names)
	}
}

// TestWriteFileAtomicReadersSeeWholeFiles rewrites one path over and
// over while a reader polls it: every read must return one of the
// complete payloads, never an empty or truncated file (what a plain
// truncate-and-write shows a reader, or leaves after a kill).
func TestWriteFileAtomicReadersSeeWholeFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attack.json")
	a, b := bytes.Repeat([]byte("a"), 64<<10), bytes.Repeat([]byte("b"), 96<<10)
	if err := WriteFileAtomic(path, a, 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			p := a
			if i%2 == 0 {
				p = b
			}
			if err := WriteFileAtomic(path, p, 0o644); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if names := dirNames(t, filepath.Dir(path)); len(names) != 1 {
				t.Fatalf("directory holds %v after %d reads, want only attack.json", names, reads)
			}
			return
		default:
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
			t.Fatalf("read %d saw a torn file of %d bytes", reads, len(got))
		}
	}
}
