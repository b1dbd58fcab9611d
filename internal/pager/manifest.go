package pager

// Sharded snapshot sets: a serving deployment with S ingest shards
// persists one snapshot file per shard plus a small checksummed
// manifest that names, for every shard, the exact file holding its
// current durable generation. Shard files are immutable once renamed
// into place — their names carry the publication generation that wrote
// them (ShardPath), and a republication of a shard writes a *new* file
// under the next generation's name — so the manifest is the single
// point of atomicity: readers recover exactly the shard set the last
// durable manifest names, and a crash between a shard-file write and
// the manifest write leaves an orphaned file the next publication
// sweeps, never a mixed generation.
//
// # Manifest format (version 1)
//
//	bytes 0..3    magic "HDSM"
//	4..7          version        u32 little endian
//	8..15         generation     u64 (the publication event that wrote
//	              this manifest)
//	16..19        dim            u32 (dimensionality of every shard)
//	20..23        shard count    u32
//	24..          per shard, 20 bytes each:
//	                generation   u64 (of the shard's current file;
//	                             0 = the shard has no durable file yet)
//	                bytes        u64 (exact size of that file)
//	                header CRC   u32 (the trailing CRC-32C of that
//	                             file's header page — FileSummary)
//	trailing 4    CRC-32C over everything above
//
// The whole manifest is covered by one CRC-32C, so a torn or
// bit-flipped manifest fails ReadManifest loudly. The per-shard header
// CRC lets recovery verify each shard file is byte-for-byte the one
// the manifest was written against (the header checksums every
// section's checksum) without rereading the file body.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	// ManifestMagic identifies a shard-set manifest file.
	ManifestMagic = "HDSM"
	// ManifestVersion is the current manifest format version.
	ManifestVersion = 1
	// MaxManifestShards bounds the shard count a manifest may claim, so
	// a corrupted count cannot drive huge allocations.
	MaxManifestShards = 4096

	manifestFixedBytes = 24
	manifestShardBytes = 20
)

// ManifestShard locates one shard's current durable snapshot file.
type ManifestShard struct {
	// Generation is the publication generation stamped into the shard
	// file's name (ShardPath); 0 means the shard has no durable file.
	Generation int64
	// Bytes is the exact size of the shard file.
	Bytes int64
	// HeaderCRC is the trailing CRC-32C of the shard file's header
	// page, as FileSummary reports it.
	HeaderCRC uint32
}

// Manifest is the decoded shard-set manifest.
type Manifest struct {
	// Generation is the publication event that wrote this manifest.
	Generation int64
	// Dim is the dimensionality of every shard's points.
	Dim int
	// Shards holds one entry per shard, in shard order.
	Shards []ManifestShard
}

// ShardPath derives the snapshot file path of one shard generation
// from the manifest path. The generation is part of the name on
// purpose: a shard file is written once and never modified, so the
// manifest's (shard, generation) reference either resolves to a
// complete file or to nothing — a mixed or half-written generation is
// unrepresentable.
func ShardPath(manifestPath string, shard int, gen int64) string {
	return fmt.Sprintf("%s.s%03d.g%d.hdsn", manifestPath, shard, gen)
}

// ShardFiles globs every shard snapshot file belonging to the
// manifest, current or orphaned.
func ShardFiles(manifestPath string) ([]string, error) {
	return filepath.Glob(manifestPath + ".s*.g*.hdsn")
}

// ParseShardPath inverts ShardPath: it extracts the shard index and
// generation from a file name ShardFiles returned. ok is false for
// names that do not parse (foreign files are left alone by sweeps).
func ParseShardPath(manifestPath, file string) (shard int, gen int64, ok bool) {
	rest, found := strings.CutPrefix(file, manifestPath+".s")
	if !found {
		return 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".hdsn")
	if !found {
		return 0, 0, false
	}
	si, rest, found := strings.Cut(rest, ".g")
	if !found {
		return 0, 0, false
	}
	s, err := strconv.Atoi(si)
	if err != nil || s < 0 {
		return 0, 0, false
	}
	g, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || g < 1 {
		return 0, 0, false
	}
	return s, g, true
}

// ShardTemps lists the temporaries of shard-file writes that crashed
// before their rename (atomicReplace names a temporary after its
// target). A shard file's name carries its generation, so later writes
// go to other names and never sweep these; the serving layer does,
// after each manifest commit.
func ShardTemps(manifestPath string) []string {
	matches, _ := filepath.Glob(manifestPath + ".s*.g*.hdsn" + tmpSuffix + "*")
	temps := matches[:0]
	for _, f := range matches {
		if _, _, ok := ParseShardPath(manifestPath, f[:strings.LastIndex(f, tmpSuffix)]); ok {
			temps = append(temps, f)
		}
	}
	return temps
}

// EncodeManifest renders m into its checksummed binary form.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if m.Generation < 1 {
		return nil, fmt.Errorf("pager: manifest generation %d < 1", m.Generation)
	}
	if m.Dim < 1 {
		return nil, fmt.Errorf("pager: manifest dimension %d < 1", m.Dim)
	}
	if len(m.Shards) < 1 || len(m.Shards) > MaxManifestShards {
		return nil, fmt.Errorf("pager: %d manifest shards outside [1, %d]", len(m.Shards), MaxManifestShards)
	}
	b := make([]byte, manifestFixedBytes+manifestShardBytes*len(m.Shards)+4)
	le := binary.LittleEndian
	copy(b[0:4], ManifestMagic)
	le.PutUint32(b[4:], ManifestVersion)
	le.PutUint64(b[8:], uint64(m.Generation))
	le.PutUint32(b[16:], uint32(m.Dim))
	le.PutUint32(b[20:], uint32(len(m.Shards)))
	for i, s := range m.Shards {
		if s.Generation < 0 || s.Generation > m.Generation {
			return nil, fmt.Errorf("pager: shard %d generation %d outside [0, %d]", i, s.Generation, m.Generation)
		}
		if s.Bytes < 0 {
			return nil, fmt.Errorf("pager: shard %d negative size %d", i, s.Bytes)
		}
		off := manifestFixedBytes + manifestShardBytes*i
		le.PutUint64(b[off:], uint64(s.Generation))
		le.PutUint64(b[off+8:], uint64(s.Bytes))
		le.PutUint32(b[off+16:], s.HeaderCRC)
	}
	le.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	return b, nil
}

// DecodeManifest parses and fully verifies a manifest blob. Every
// corruption — wrong magic (including a snapshot file offered as a
// manifest), truncation, trailing garbage, a flipped bit anywhere, an
// implausible count — is an error, never a misread.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < manifestFixedBytes+4 {
		return nil, fmt.Errorf("pager: file too short for a shard manifest (%d bytes)", len(b))
	}
	if string(b[0:4]) != ManifestMagic {
		if string(b[0:4]) == Magic {
			return nil, fmt.Errorf("pager: file is a single snapshot (magic %q), not a shard manifest — open it with hdidx.Open, or start a server over its points", Magic)
		}
		return nil, fmt.Errorf("pager: not a shard manifest (magic %q)", b[0:4])
	}
	le := binary.LittleEndian
	if got, want := le.Uint32(b[len(b)-4:]), crc32.Checksum(b[:len(b)-4], castagnoli); got != want {
		return nil, fmt.Errorf("pager: manifest checksum mismatch (got %08x, want %08x)", got, want)
	}
	if v := le.Uint32(b[4:]); v != ManifestVersion {
		return nil, fmt.Errorf("pager: manifest version %d, this build reads version %d", v, ManifestVersion)
	}
	m := &Manifest{
		Generation: int64(le.Uint64(b[8:])),
		Dim:        int(le.Uint32(b[16:])),
	}
	n := int(le.Uint32(b[20:]))
	if n < 1 || n > MaxManifestShards {
		return nil, fmt.Errorf("pager: manifest claims %d shards outside [1, %d]", n, MaxManifestShards)
	}
	if want := manifestFixedBytes + manifestShardBytes*n + 4; len(b) != want {
		return nil, fmt.Errorf("pager: manifest is %d bytes, %d shards need exactly %d", len(b), n, want)
	}
	if m.Generation < 1 || m.Dim < 1 {
		return nil, fmt.Errorf("pager: implausible manifest (generation=%d dim=%d)", m.Generation, m.Dim)
	}
	m.Shards = make([]ManifestShard, n)
	for i := range m.Shards {
		off := manifestFixedBytes + manifestShardBytes*i
		s := ManifestShard{
			Generation: int64(le.Uint64(b[off:])),
			Bytes:      int64(le.Uint64(b[off+8:])),
			HeaderCRC:  le.Uint32(b[off+16:]),
		}
		if s.Generation < 0 || s.Generation > m.Generation || s.Bytes < 0 {
			return nil, fmt.Errorf("pager: implausible manifest shard %d (generation=%d bytes=%d)", i, s.Generation, s.Bytes)
		}
		m.Shards[i] = s
	}
	return m, nil
}

// WriteManifestAtomic publishes the manifest at path crash-safely with
// the same protocol as WriteFileAtomic (atomicReplace), returning the
// bytes written. A crash at any moment leaves the previous manifest or
// the new one — never a torn file — and a failed directory sync is
// returned, as there.
func WriteManifestAtomic(path string, m *Manifest) (int64, error) {
	b, err := EncodeManifest(m)
	if err != nil {
		return 0, err
	}
	return atomicReplace(path, func(w io.Writer) (int64, error) {
		n, err := w.Write(b)
		return int64(n), err
	})
}

// ReadManifest opens, reads, and fully verifies the manifest at path.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("pager: read manifest %s: empty file", path)
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("pager: read manifest %s: %w", path, err)
	}
	return m, nil
}

// FileSummary reads and verifies the header page of a snapshot file,
// returning the header's trailing CRC-32C and the file's size. The
// header checksums every section's checksum, so (size, header CRC)
// identifies the file's full content — it is what a manifest records
// per shard and what recovery re-checks before trusting a shard file.
func FileSummary(path string) (headerCRC uint32, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	b := make([]byte, headerBytes)
	if _, err := io.ReadFull(f, b); err != nil {
		return 0, 0, fmt.Errorf("pager: summary %s: short header read: %w", path, err)
	}
	if _, err := decodeHeader(b); err != nil {
		return 0, 0, fmt.Errorf("pager: summary %s: %w", path, err)
	}
	return binary.LittleEndian.Uint32(b[headerBytes-4:]), st.Size(), nil
}
