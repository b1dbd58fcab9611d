package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdidx/internal/query"
	"hdidx/internal/rtree"
)

// This file is the hostile-input suite of the snapshot format: every
// way a file can lie — truncation, bit flips, version skew, foreign
// content — must surface as an error from Open, never a panic and
// never a silently misread tree. The fuzz target extends the same
// contract to arbitrary byte strings.

// goodSnapshotBytes builds a small tree over points drawn from seed and
// serializes it at the minimum page size, returning the raw file bytes.
func goodSnapshotBytes(tb testing.TB, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := uniform(400, 6, rng)
	ft := rtree.Build(data, rtree.BuildParams{LeafCap: 16, DirCap: 8}).Flatten()
	var buf bytes.Buffer
	if _, err := Write(&buf, ft, MinPageBytes); err != nil {
		tb.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// retiredSnapshotBytes rebuilds the layout the retired quantized scan
// prefilter wrote: a good snapshot plus a codes section (kind 8, one
// byte per point and dimension) and a marks section (kind 9, 2^bits+1
// float64 marks per dimension), each page-aligned with a valid CRC, and
// the header's reserved word set to bits. Every checksum is valid, so
// only the retired-layout checks can reject the file.
func retiredSnapshotBytes(tb testing.TB, bits uint32) []byte {
	tb.Helper()
	b := goodSnapshotBytes(tb, 7)
	h, err := decodeHeader(b[:headerBytes])
	if err != nil {
		tb.Fatalf("decode good header: %v", err)
	}
	le := binary.LittleEndian
	retired := [][]byte{
		make([]byte, h.dim*h.numPoints),
		make([]byte, h.dim*((1<<bits)+1)*8),
	}
	for i, sec := range retired {
		off := 52 + 24*(len(h.sections)+i)
		le.PutUint32(b[off:], uint32(secRetiredCodes+i))
		le.PutUint32(b[off+4:], crc32.Checksum(sec, castagnoli))
		le.PutUint64(b[off+8:], uint64(len(b)))
		le.PutUint64(b[off+16:], uint64(len(sec)))
		b = append(b, sec...)
		b = append(b, make([]byte, pagePad(int64(len(sec)), MinPageBytes)-int64(len(sec)))...)
	}
	le.PutUint32(b[44:], bits)
	le.PutUint32(b[48:], uint32(len(h.sections)+len(retired)))
	le.PutUint32(b[headerBytes-4:], crc32.Checksum(b[:headerBytes-4], castagnoli))
	return b
}

// openBytes lands b in a file and tries to open it, closing the
// snapshot if verification wrongly passes.
func openBytes(tb testing.TB, b []byte) error {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "snap.hdsn")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		tb.Fatalf("stage file: %v", err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
	}
	return err
}

// TestOpenTruncated cuts a valid file at every interesting boundary —
// empty, mid-header, header only, mid-section, one byte short — and
// requires an error every time.
func TestOpenTruncated(t *testing.T) {
	good := goodSnapshotBytes(t, 7)
	cuts := []int{0, 1, headerBytes - 1, headerBytes, MinPageBytes - 1,
		MinPageBytes, len(good) / 2, len(good) - MinPageBytes, len(good) - 1}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(good) {
			continue
		}
		if err := openBytes(t, good[:cut]); err == nil {
			t.Errorf("open accepted a file truncated to %d of %d bytes", cut, len(good))
		}
	}
}

// TestOpenHeaderBitFlips corrupts every byte of the header in turn;
// the header checksum (or, for the magic, the signature check) must
// reject each one.
func TestOpenHeaderBitFlips(t *testing.T) {
	good := goodSnapshotBytes(t, 7)
	for off := 0; off < headerBytes; off++ {
		b := append([]byte(nil), good...)
		b[off] ^= 0xFF
		if err := openBytes(t, b); err == nil {
			t.Fatalf("open accepted a header bit flip at byte %d", off)
		}
	}
}

// TestOpenSectionBitFlips corrupts bytes inside every section's data
// range (first, middle, last); the per-section CRC must reject each.
// Bytes in the zero padding between sections are deliberately not
// flipped — padding carries no data and is not checksummed.
func TestOpenSectionBitFlips(t *testing.T) {
	good := goodSnapshotBytes(t, 7)
	h, err := decodeHeader(good[:headerBytes])
	if err != nil {
		t.Fatalf("decode good header: %v", err)
	}
	for _, s := range h.sections {
		for _, off := range []int64{s.offset, s.offset + s.length/2, s.offset + s.length - 1} {
			b := append([]byte(nil), good...)
			b[off] ^= 0x01
			if err := openBytes(t, b); err == nil {
				t.Errorf("open accepted a bit flip at byte %d of section kind %d", off, s.kind)
			}
		}
	}
}

// TestOpenVersionSkew re-stamps a valid file as a future format
// version, with a correct header checksum, and requires rejection —
// this reader must not guess at layouts it does not know.
func TestOpenVersionSkew(t *testing.T) {
	good := goodSnapshotBytes(t, 7)
	b := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(b[4:], Version+1)
	binary.LittleEndian.PutUint32(b[headerBytes-4:],
		crc32.Checksum(b[:headerBytes-4], castagnoli))
	if err := openBytes(t, b); err == nil {
		t.Fatal("open accepted a file stamped with a future version")
	}
}

// TestOpenForeignFiles feeds Open things that are not snapshot files
// at all: empty, text, random bytes, and a wrong-magic file that is
// otherwise header-shaped.
func TestOpenForeignFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 4*MinPageBytes)
	rng.Read(random)
	wrongMagic := goodSnapshotBytes(t, 7)
	wrongMagic = append([]byte(nil), wrongMagic...)
	copy(wrongMagic[0:4], "HDX1")
	binary.LittleEndian.PutUint32(wrongMagic[headerBytes-4:],
		crc32.Checksum(wrongMagic[:headerBytes-4], castagnoli))
	cases := map[string][]byte{
		"empty":       {},
		"text":        []byte("not a snapshot\n"),
		"random":      random,
		"wrong magic": wrongMagic,
	}
	for name, b := range cases {
		if err := openBytes(t, b); err == nil {
			t.Errorf("open accepted %s content", name)
		}
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.hdsn")); err == nil {
		t.Error("open accepted a missing file")
	}
}

// TestOpenZeroLengthAndSubHeader pins the clean-error contract on the
// two smallest malformed files: a zero-length file and one shorter
// than the header. Both must fail with a descriptive error — never an
// io.EOF (or io.ErrUnexpectedEOF) surprise leaking from a short read —
// on every backend, forced and auto.
func TestOpenZeroLengthAndSubHeader(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
	}{
		{"zero-length", nil},
		{"one byte", []byte{'H'}},
		{"sub-header", bytes.Repeat([]byte{0xAB}, headerBytes-1)},
		{"magic only", []byte(Magic)},
	}
	backends := []Options{{}, {Backend: BackendReadAt}}
	if MmapSupported() {
		backends = append(backends, Options{Backend: BackendMmap})
	}
	for _, c := range cases {
		path := filepath.Join(dir, "bad")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range backends {
			s, err := OpenWith(path, opts)
			if err == nil {
				s.Close()
				t.Fatalf("%s/%v: open accepted a %d-byte file", c.name, opts.Backend, len(c.data))
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s/%v: io.EOF leaked: %v", c.name, opts.Backend, err)
			}
			if !strings.Contains(err.Error(), "empty file") &&
				!strings.Contains(err.Error(), "too short") {
				t.Fatalf("%s/%v: undescriptive error: %v", c.name, opts.Backend, err)
			}
		}
	}
}

// TestOpenRetiredFormat pins the clear error for files that carry the
// retired quantized scan prefilter: a valid-CRC header with a nonzero
// bits word (what prefiltered writers produced), and a section table
// that lists the codes and marks kinds with the word zeroed. Both must
// fail with ErrRetiredFormat on every backend, never a panic and never
// a misread tree.
func TestOpenRetiredFormat(t *testing.T) {
	backends := []Options{{}, {Backend: BackendReadAt}}
	if MmapSupported() {
		backends = append(backends, Options{Backend: BackendMmap})
	}
	for _, c := range []struct {
		name string
		bits uint32
	}{
		{"prefiltered header", 4},
		{"prefilter sections, zero bits word", 0},
	} {
		path := filepath.Join(t.TempDir(), "retired.hdsn")
		if err := os.WriteFile(path, retiredSnapshotBytes(t, c.bits), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range backends {
			s, err := OpenWith(path, opts)
			if err == nil {
				s.Close()
				t.Fatalf("%s/%v: open accepted a retired-prefilter file", c.name, opts.Backend)
			}
			if !errors.Is(err, ErrRetiredFormat) {
				t.Fatalf("%s/%v: error %v, want ErrRetiredFormat", c.name, opts.Backend, err)
			}
			if !strings.Contains(err.Error(), "re-save") {
				t.Fatalf("%s/%v: error %q does not say how to recover", c.name, opts.Backend, err)
			}
		}
	}
}

// FuzzOpen asserts the hostile-input contract on arbitrary bytes:
// Open either errors or yields a fully verified snapshot whose tree
// answers a query without panicking.
func FuzzOpen(f *testing.F) {
	good := goodSnapshotBytes(f, 7)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:headerBytes])
	flipped := append([]byte(nil), good...)
	flipped[headerBytes/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("HDSN garbage that is far too short"))
	f.Add(retiredSnapshotBytes(f, 4))
	f.Add(retiredSnapshotBytes(f, 0))
	// One file path per fuzz process (workers are separate processes):
	// per-exec temp dirs would dominate the runtime.
	path := filepath.Join(f.TempDir(), "fuzz.hdsn")
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(path)
		if err != nil {
			return
		}
		defer s.Close()
		ft := s.Tree()
		if ft.NumPoints > 0 {
			q := make([]float64, ft.Dim)
			res := query.MeasureKNNPaged(ft, s, [][]float64{q}, 1)[0]
			if res.LeafAccesses < 1 {
				t.Fatalf("verified snapshot answered k=1 without reading a leaf: %+v", res)
			}
		}
	})
}
