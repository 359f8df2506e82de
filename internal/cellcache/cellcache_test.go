package cellcache

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestReturnedSliceIsACopy(t *testing.T) {
	s, err := NewDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("k"))
	orig := []byte("abc")
	s.Put(k, orig)
	orig[0] = 'X' // caller mutates after Put
	v, _ := s.Get(k)
	if string(v) != "abc" {
		t.Fatalf("Put did not copy: %q", v)
	}
	v[0] = 'Y' // caller mutates the returned slice
	v2, _ := s.Get(k)
	if string(v2) != "abc" {
		t.Fatalf("Get did not copy: %q", v2)
	}
}

// TestMemoryGetPut: within one store handle, a miss, a put and a hit
// are counted once each.
func TestMemoryGetPut(t *testing.T) {
	s, err := NewDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("cell-a"))
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(k, []byte("payload"))
	v, ok := s.Get(k)
	if !ok || string(v) != "payload" {
		t.Fatalf("got %q ok=%v", v, ok)
	}
	if st := s.Stats(); st != (Stats{Hits: 1, Misses: 1, Puts: 1}) {
		t.Fatalf("stats %+v", st)
	}
}

// TestDiskRoundTripAndPromotion: a second store over the same directory
// sees an entry, and a read promotes nothing into memory — once the file
// is corrupted, the next read misses.
func TestDiskRoundTripAndPromotion(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("disk"))
	s.Put(k, []byte("persisted"))

	s2, err := NewDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(k); !ok || string(v) != "persisted" {
		t.Fatalf("disk read got %q ok=%v", v, ok)
	}
	if err := os.WriteFile(filepath.Join(dir, k.String()+".cell"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(k); ok {
		t.Fatalf("corrupted entry served %q", v)
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("corrupt"))
	good := EncodeEntry([]byte("payload"))
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:entryHeader-1],
		"badmagic":  append([]byte("XXXX"), good[4:]...),
		"badver":    append(append([]byte(entryMagic), 99), good[5:]...),
		"truncated": good[:len(good)-2],
		"bitflip": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 1
			return b
		}(),
	}
	for name, b := range cases {
		if err := os.WriteFile(s.path(k), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(k); ok {
			t.Fatalf("%s: corrupt entry served as a hit", name)
		}
	}
}

func TestEntryRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1<<16)} {
		got, err := DecodeEntry(EncodeEntry(payload))
		if err != nil {
			t.Fatalf("decode(encode(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) || got == nil {
			t.Fatalf("round trip changed payload (%d bytes; nil result %v)", len(payload), got == nil)
		}
	}
}

func TestKeyOfIsStable(t *testing.T) {
	a, b := KeyOf([]byte("material")), KeyOf([]byte("material"))
	if a != b {
		t.Fatal("same material, different keys")
	}
	if a == KeyOf([]byte("material2")) {
		t.Fatal("different material, same key")
	}
}

// writerDirEnv names the shared cache directory when the test binary
// runs as one of TestConcurrentWriterProcesses' writer processes.
const writerDirEnv = "CELLCACHE_TEST_WRITER_DIR"

// TestConcurrentWriterProcesses runs two processes — this test binary,
// re-executed — that Put and Get the same keys in one directory for
// about a second. Every Get must return a miss or the exact payload of
// its key, and once a process has stored a key it must never miss it
// again: the other process rewrites that entry all the while, and only
// an atomic replace (temp file, then rename) keeps a reader from
// catching it truncated.
func TestConcurrentWriterProcesses(t *testing.T) {
	if dir := os.Getenv(writerDirEnv); dir != "" {
		hammerDir(t, dir, time.Second)
		return
	}
	dir := t.TempDir()
	var cmds []*exec.Cmd
	var outs []*bytes.Buffer
	for w := 0; w < 2; w++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConcurrentWriterProcesses$")
		cmd.Env = append(os.Environ(), writerDirEnv+"="+dir)
		out := new(bytes.Buffer)
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds, outs = append(cmds, cmd), append(outs, out)
	}
	for w, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("writer %d: %v\n%s", w, err, outs[w])
		}
	}
}

// hammerDir is one writer process: it cycles through a few keys with
// 64 KiB payloads, storing every third and reading every one; every
// read goes to disk.
func hammerDir(t *testing.T, dir string, d time.Duration) {
	s, err := NewDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 5
	var payloads [keys][]byte
	var stored [keys]bool
	for i := range payloads {
		payloads[i] = make([]byte, 64<<10)
		for j := range payloads[i] {
			payloads[i][j] = byte(i*37 + j + j>>8)
		}
	}
	deadline := time.Now().Add(d)
	for n := 0; time.Now().Before(deadline); n++ {
		i := n % keys
		k := KeyOf([]byte{'w', byte(i)})
		v, ok := s.Get(k)
		switch {
		case ok && !bytes.Equal(v, payloads[i]):
			t.Fatalf("op %d: key %d read a %d-byte payload that is not its own", n, i, len(v))
		case !ok && stored[i]:
			t.Fatalf("op %d: key %d missed after this process stored it", n, i)
		}
		if n%3 == 0 {
			s.Put(k, payloads[i])
			stored[i] = true
		}
	}
}
