package pager

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The manifest carries the atomicity of a sharded publication, so its
// hostile-input suite mirrors corrupt_test.go: every way a manifest
// can lie — truncation, bit flips anywhere, version skew, implausible
// counts, cross-format confusion with snapshot files — must surface as
// an error from ReadManifest, never a misread shard set.

func goodManifest() *Manifest {
	return &Manifest{
		Generation: 7,
		Dim:        16,
		Shards: []ManifestShard{
			{Generation: 7, Bytes: 4096, HeaderCRC: 0xDEADBEEF},
			{Generation: 3, Bytes: 8192, HeaderCRC: 0x01020304},
			{Generation: 0, Bytes: 0, HeaderCRC: 0}, // durably empty shard
			{Generation: 6, Bytes: 512, HeaderCRC: 0xFFFFFFFF},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.hdsm")
	want := goodManifest()
	n, err := WriteManifestAtomic(path, want)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != n {
		t.Fatalf("stat after write: size=%v err=%v, reported %d bytes", st, err, n)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != want.Generation || got.Dim != want.Dim || len(got.Shards) != len(want.Shards) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	for i := range want.Shards {
		if got.Shards[i] != want.Shards[i] {
			t.Fatalf("shard %d mismatch: got %+v want %+v", i, got.Shards[i], want.Shards[i])
		}
	}
}

// TestManifestBitFlips flips every byte of a valid manifest in turn;
// the trailing CRC (or, for the magic, the signature check) must
// reject each one.
func TestManifestBitFlips(t *testing.T) {
	b, err := EncodeManifest(goodManifest())
	if err != nil {
		t.Fatal(err)
	}
	for off := range b {
		c := append([]byte(nil), b...)
		c[off] ^= 0x10
		if _, err := DecodeManifest(c); err == nil {
			t.Fatalf("decode accepted a bit flip at byte %d", off)
		}
	}
}

// TestManifestTruncation cuts the encoding at every length; all must
// fail, including one byte short and one byte long.
func TestManifestTruncation(t *testing.T) {
	b, err := EncodeManifest(goodManifest())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeManifest(b[:cut]); err == nil {
			t.Fatalf("decode accepted a manifest truncated to %d of %d bytes", cut, len(b))
		}
	}
	if _, err := DecodeManifest(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("decode accepted a manifest with a trailing byte")
	}
}

// TestManifestVersionSkewAndBadCounts re-checksums corrupted fields so
// only the semantic validation can catch them.
func TestManifestVersionSkewAndBadCounts(t *testing.T) {
	restamp := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
		return b
	}
	base, err := EncodeManifest(goodManifest())
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		f(b)
		return restamp(b)
	}
	le := binary.LittleEndian
	cases := map[string][]byte{
		"future version":  mut(func(b []byte) { le.PutUint32(b[4:], ManifestVersion+1) }),
		"zero generation": mut(func(b []byte) { le.PutUint64(b[8:], 0) }),
		"zero dim":        mut(func(b []byte) { le.PutUint32(b[16:], 0) }),
		"zero shards":     mut(func(b []byte) { le.PutUint32(b[20:], 0) }),
		"shard count overflows length": mut(func(b []byte) {
			le.PutUint32(b[20:], uint32(len(goodManifest().Shards)+1))
		}),
		"huge shard count": mut(func(b []byte) { le.PutUint32(b[20:], MaxManifestShards+1) }),
		"shard gen beyond manifest gen": mut(func(b []byte) {
			le.PutUint64(b[manifestFixedBytes:], uint64(goodManifest().Generation+1))
		}),
	}
	for name, b := range cases {
		if _, err := DecodeManifest(b); err == nil {
			t.Errorf("decode accepted %s", name)
		}
	}
}

// TestManifestCrossFormatConfusion: a snapshot file handed to
// ReadManifest and a manifest handed to Open must both fail with
// errors that name the other format, so an operator who points a
// server at a file Index.Save wrote (or Open at a server's manifest)
// gets told exactly what happened.
func TestManifestCrossFormatConfusion(t *testing.T) {
	dir := t.TempDir()

	snap := filepath.Join(dir, "single.hdsn")
	if err := os.WriteFile(snap, goodSnapshotBytes(t, 7), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(snap); err == nil {
		t.Fatal("ReadManifest accepted a snapshot file")
	} else if !strings.Contains(err.Error(), "single snapshot") {
		t.Fatalf("snapshot-as-manifest error does not name the format: %v", err)
	}

	man := filepath.Join(dir, "set.hdsm")
	if _, err := WriteManifestAtomic(man, goodManifest()); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(man); err == nil {
		s.Close()
		t.Fatal("Open accepted a manifest file")
	} else if !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("manifest-as-snapshot error does not name the format: %v", err)
	}

	if _, err := ReadManifest(filepath.Join(dir, "missing.hdsm")); err == nil {
		t.Fatal("ReadManifest accepted a missing file")
	}
	empty := filepath.Join(dir, "empty.hdsm")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(empty); err == nil {
		t.Fatal("ReadManifest accepted an empty file")
	}
}

// TestManifestAtomicReplace overwrites an existing manifest and checks
// the new content landed and no tmp files survive; a stale tmp from a
// simulated crash is swept by the next write.
func TestManifestAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "set.hdsm")
	m := goodManifest()
	if _, err := WriteManifestAtomic(path, m); err != nil {
		t.Fatal(err)
	}
	stale := path + ".tmp-12345"
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	m.Generation = 8
	m.Shards[1].Generation = 8
	if _, err := WriteManifestAtomic(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 8 || got.Shards[1].Generation != 8 {
		t.Fatalf("replace did not land: %+v", got)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not swept: %v", err)
	}
	left, _ := filepath.Glob(path + ".tmp-*")
	if len(left) != 0 {
		t.Fatalf("tmp files left behind: %v", left)
	}
}

// TestShardPathRoundTrip pins the shard-file naming scheme and its
// parser against each other, plus ShardFiles discovery.
func TestShardPathRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "set.hdsm")
	cases := []struct {
		shard int
		gen   int64
	}{{0, 1}, {3, 42}, {999, 1 << 40}}
	for _, c := range cases {
		p := ShardPath(base, c.shard, c.gen)
		s, g, ok := ParseShardPath(base, p)
		if !ok || s != c.shard || g != c.gen {
			t.Fatalf("round trip (%d,%d) -> %q -> (%d,%d,%v)", c.shard, c.gen, p, s, g, ok)
		}
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign files must not parse.
	for _, bad := range []string{
		base + ".sX.g1.hdsn", base + ".s1.gX.hdsn", base + ".s1.hdsn",
		base, filepath.Join(dir, "other.s001.g1.hdsn"),
	} {
		if _, _, ok := ParseShardPath(base, bad); ok {
			t.Fatalf("parsed foreign name %q", bad)
		}
	}
	files, err := ShardFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(cases) {
		t.Fatalf("ShardFiles found %d files, want %d: %v", len(files), len(cases), files)
	}
}

// TestFileSummary pins that (headerCRC, size) identifies a snapshot
// file: it round-trips on a good file and detects any content change.
func TestFileSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.hdsn")
	good := goodSnapshotBytes(t, 7)
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	crc, size, err := FileSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(good)) {
		t.Fatalf("size %d, want %d", size, len(good))
	}
	if want := binary.LittleEndian.Uint32(good[headerBytes-4:]); crc != want {
		t.Fatalf("header CRC %08x, want %08x", crc, want)
	}
	// A different tree yields a different summary.
	other := goodSnapshotBytes(t, 8)
	path2 := filepath.Join(dir, "s2.hdsn")
	if err := os.WriteFile(path2, other, 0o644); err != nil {
		t.Fatal(err)
	}
	crc2, _, err := FileSummary(path2)
	if err != nil {
		t.Fatal(err)
	}
	if crc2 == crc {
		t.Fatal("distinct snapshots share a header CRC; summary does not identify content")
	}
	// Corrupt header fails loudly.
	bad := append([]byte(nil), good...)
	bad[8] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FileSummary(path); err == nil {
		t.Fatal("FileSummary accepted a corrupt header")
	}
	// Sub-header file fails loudly.
	if err := os.WriteFile(path, good[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FileSummary(path); err == nil {
		t.Fatal("FileSummary accepted a sub-header file")
	}
}

// FuzzDecodeManifest asserts the manifest's hostile-input contract on
// arbitrary bytes: DecodeManifest never panics, and any manifest it
// accepts re-encodes to exactly the bytes it was decoded from (the
// fixed head and the shard records have no padding, so an accepted
// manifest has one encoding).
func FuzzDecodeManifest(f *testing.F) {
	good, err := EncodeManifest(goodManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:manifestFixedBytes])
	flipped := append([]byte(nil), good...)
	flipped[20] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(Magic + " is a snapshot, not a manifest"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		again, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest %+v does not re-encode: %v", m, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted manifest re-encodes to other bytes:\n got %x\nwant %x", again, b)
		}
	})
}
