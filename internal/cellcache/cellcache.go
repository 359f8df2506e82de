// Package cellcache is a content-addressed store for encoded sweep-cell
// results. Keys are SHA-256 digests of canonical key material (the
// fully-resolved scenario, its seed and a code-version fingerprint —
// derived by the caller); values are opaque encoded payloads. Because a
// sweep cell's bytes are a pure function of that key material, a hit can
// be substituted for a simulation run without changing a single output
// byte — the store never needs to validate payloads against anything but
// its own integrity framing.
//
// A store is its directory: one file per entry, nothing held in memory,
// so every process pointed at the directory shares its entries. Entries
// are written atomically (temp file + rename) and framed with a magic,
// version, length and CRC32 so a truncated or corrupted file degrades to
// a miss, never to a wrong result.
package cellcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/obs"
)

// Key addresses one cached payload: the SHA-256 of the caller's canonical
// key material.
type Key [sha256.Size]byte

// KeyOf digests canonical key material into a Key.
func KeyOf(material []byte) Key { return sha256.Sum256(material) }

// String renders the key as lowercase hex (also the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Stats counts the store's traffic since construction.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Puts counts stored payloads.
	Puts uint64
}

// Store is a directory of entries. All methods are safe for concurrent
// use: each entry is read and replaced whole, and the counters are
// atomic, so no lock is held across disk I/O.
type Store struct {
	dir                string
	hits, misses, puts atomic.Uint64
}

// NewDir returns a store backed by dir (created if missing). The second
// argument is ignored: entries live only on disk.
func NewDir(dir string, _ int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cellcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Get returns the payload stored under k. The boolean reports whether an
// intact entry was found; the returned slice is the caller's to keep.
func (s *Store) Get(k Key) ([]byte, bool) {
	if b, err := os.ReadFile(s.path(k)); err == nil {
		if v, err := DecodeEntry(b); err == nil {
			s.hits.Add(1)
			return v, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores payload under k, overwriting any previous value. Disk write
// failures are swallowed: the cache is an accelerator, never a
// correctness dependency.
func (s *Store) Put(k Key, payload []byte) {
	s.puts.Add(1)
	s.writeDisk(k, payload)
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load()}
}

// MetricsInto publishes the store's traffic counters into the registry
// as gauges (a nil registry is a no-op). Gauges, not counters: the store
// is shared across runs, so each snapshot reports the store's lifetime
// totals at that moment rather than accumulating them again per run.
func (s *Store) MetricsInto(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := s.Stats()
	reg.Gauge("cellcache.hits").Set(int64(st.Hits))
	reg.Gauge("cellcache.misses").Set(int64(st.Misses))
	reg.Gauge("cellcache.puts").Set(int64(st.Puts))
}

// path returns the on-disk file for k.
func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.String()+".cell") }

// writeDisk persists one entry atomically: a unique temp file in the same
// directory, then rename. A concurrent writer of the same key races to an
// identical payload (content addressing), so last-rename-wins is safe.
func (s *Store) writeDisk(k Key, v []byte) {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(EncodeEntry(v))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, s.path(k)); err != nil {
		os.Remove(name)
	}
}

// Entry framing: magic "nocc", a format version byte, the payload length,
// the payload's CRC32 (IEEE) and the payload itself. Length and checksum
// make truncation and bit rot detectable, so DecodeEntry fails closed.
const (
	entryMagic   = "nocc"
	entryVersion = 1
	entryHeader  = len(entryMagic) + 1 + 4 + 4
)

// EncodeEntry frames a payload for disk.
func EncodeEntry(payload []byte) []byte {
	out := make([]byte, 0, entryHeader+len(payload))
	out = append(out, entryMagic...)
	out = append(out, entryVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// DecodeEntry unframes a disk entry, verifying magic, version, length and
// checksum. Any mismatch — short file, trailing garbage, flipped bit —
// returns an error, which the store treats as a miss. The payload it
// returns aliases b; an empty payload is an empty, non-nil slice.
func DecodeEntry(b []byte) ([]byte, error) {
	if len(b) < entryHeader {
		return nil, fmt.Errorf("cellcache: entry truncated at %d bytes", len(b))
	}
	if string(b[:len(entryMagic)]) != entryMagic {
		return nil, errors.New("cellcache: bad entry magic")
	}
	if v := b[len(entryMagic)]; v != entryVersion {
		return nil, fmt.Errorf("cellcache: unsupported entry version %d", v)
	}
	n := binary.LittleEndian.Uint32(b[len(entryMagic)+1:])
	sum := binary.LittleEndian.Uint32(b[len(entryMagic)+5:])
	payload := b[entryHeader:]
	if uint64(len(payload)) != uint64(n) {
		return nil, fmt.Errorf("cellcache: entry length %d, want %d", len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errors.New("cellcache: entry checksum mismatch")
	}
	return payload, nil
}
