package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hdidx/internal/pager"
	"hdidx/internal/rtree"
)

// TestFlushClosedServer is the regression test for the lifecycle bug
// where Flush on a closed server still published a new generation
// (Insert correctly refused while Flush happily resurrected the dead
// server). Flush must return ErrClosed and the generation must not
// advance; Stats and Generation stay readable.
func TestFlushClosedServer(t *testing.T) {
	s, err := New(uniform(100, 4, 1), Config{FlattenEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Leave unpublished pending points so a buggy Flush would publish.
	if err := s.Insert(make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	genBefore := s.Generation()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush on closed server: %v, want ErrClosed", err)
	}
	if g := s.Generation(); g != genBefore {
		t.Fatalf("Flush on closed server advanced generation %d -> %d", genBefore, g)
	}
	if st := s.Stats(); st.Generation != genBefore {
		t.Fatalf("Stats after close: generation %d, want %d", st.Generation, genBefore)
	}
	if err := s.Insert(make([]float64, 4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert on closed server: %v, want ErrClosed", err)
	}
}

// TestKNNCloseRace hammers concurrent KNN against Close: every call
// must complete (answer or error). A call waiting for the search gate
// when Close runs takes it after Close's fence, sees closed and returns
// ErrClosed; none may wait forever. Run under -race in CI.
func TestKNNCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, err := New(uniform(200, 3, int64(round)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		q := uniform(1, 3, 99)[0]
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					_, err := s.KNN(q, 3)
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) {
						t.Errorf("KNN: unexpected error %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
			s.Close()
		}()
		close(start)

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("KNN/Close race: a call never completed")
		}
	}
}

// committedPoints counts the points of the shard files the manifest
// at path names: what a restart would recover.
func committedPoints(t *testing.T, path string) int {
	t.Helper()
	m, err := pager.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, ms := range m.Shards {
		if ms.Generation == 0 {
			continue
		}
		pg, err := pager.Open(pager.ShardPath(path, i, ms.Generation))
		if err != nil {
			t.Fatal(err)
		}
		n += pg.Tree().NumPoints
		pg.Close()
	}
	return n
}

// TestRecoveryIgnoresTornTmp simulates crashes between a temporary's
// write and its rename, of the manifest and of a shard file: the stale
// temporaries must not confuse recovery (the committed generation
// wins), and the next publication sweeps both. A shard file's name
// carries its generation, so only the sweep after the manifest commit
// removes a shard file's temporary.
func TestRecoveryIgnoresTornTmp(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "snap")
			cfg := Config{Shards: shards, SnapshotPath: path, FlattenEvery: 1 << 30}
			s, err := New(uniform(300, 5, 11), cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()

			// Torn half-written temporaries from crashed writers.
			for _, tmp := range []string{path + ".tmp-crashed", pager.ShardPath(path, 0, 1) + ".tmp-crashed"} {
				if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s2, err := New(nil, cfg)
			if err != nil {
				t.Fatalf("recovery with stale temporaries present: %v", err)
			}
			if s2.Len() != 300 {
				t.Fatalf("recovered %d points, want 300", s2.Len())
			}
			if err := s2.Insert(make([]float64, 5)); err != nil {
				t.Fatal(err)
			}
			if err := s2.Flush(); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			if stale, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(stale) != 0 {
				t.Fatalf("stale temporaries survive publication: %v", stale)
			}
			// The committed files hold the insert.
			if n := committedPoints(t, path); n != 301 {
				t.Fatalf("committed files hold %d points, want 301", n)
			}
		})
	}
}

// TestRecoveryChecksManifestDim: the manifest's dimensionality is the
// recovered one. A path booted empty records it only there (an empty
// shard file has none), so a restart configured at another
// dimensionality is an error naming both values, and leaves the
// manifest as it was; a restart with no geometry takes the manifest's.
func TestRecoveryChecksManifestDim(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snap")
			cfg := Config{Geometry: rtree.NewGeometry(4), Shards: shards, SnapshotPath: path}
			s, err := New(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			wrong := cfg
			wrong.Geometry = rtree.NewGeometry(5)
			if s, err := New(nil, wrong); err == nil {
				s.Close()
				t.Fatal("restart at dimension 5 accepted a manifest recorded at 4")
			} else if !strings.Contains(err.Error(), "dimension 4, configured 5") {
				t.Fatalf("dimension error %q does not name both values", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("the refused restart changed the manifest (read error %v)", err)
			}

			derived := cfg
			derived.Geometry = rtree.Geometry{}
			s, err = New(nil, derived)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Dim() != 4 {
				t.Fatalf("restart with no geometry indexes dimension %d, manifest records 4", s.Dim())
			}
		})
	}
}

// TestDurableCloseReleasesMappings checks that Close releases each
// shard's final snapshot file, so a closed durable server leaves no
// mapping of its directory behind, and that Stats, Len and Generation
// still read the final counts afterwards without a retirement counted.
func TestDurableCloseReleasesMappings(t *testing.T) {
	if !pager.MmapSupported() {
		t.Skip("snapshots are not mapped on this platform")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(uniform(200, 3, 7), Config{Shards: shards, SnapshotPath: filepath.Join(dir, "s.hdsn"), FlattenEvery: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range uniform(64, 3, 8) {
				if err := s.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			switch m := fileMappings(dir); {
			case m == nil:
				t.Skip("/proc/self/maps is not readable")
			case len(m) == 0:
				t.Fatal("no served file is mapped before Close")
			}
			before := s.Stats()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if m := fileMappings(dir); len(m) != 0 {
				var left []string
				for f, n := range m {
					left = append(left, fmt.Sprintf("%s:%d", filepath.Base(f), n))
				}
				sort.Strings(left)
				t.Fatalf("mappings left after Close: %s", strings.Join(left, " "))
			}
			after := s.Stats()
			if after.Points != before.Points || after.Generation != before.Generation || after.RetiredSnapshots != before.RetiredSnapshots {
				t.Fatalf("Stats after Close = %d points, generation %d, %d retired; before %d, %d, %d",
					after.Points, after.Generation, after.RetiredSnapshots, before.Points, before.Generation, before.RetiredSnapshots)
			}
			if s.Len() != before.Points || s.Generation() != before.Generation {
				t.Fatalf("Len %d, Generation %d after Close; want %d, %d", s.Len(), s.Generation(), before.Points, before.Generation)
			}
		})
	}
}

// TestCloseWaitsForSearch holds the search gate, as a search in flight
// holds it, while Close runs, with one more caller waiting for the gate.
// Every shard's final file must stay mapped until the gate opens, none
// once Close returns; the waiting caller and every later call get
// ErrClosed.
func TestCloseWaitsForSearch(t *testing.T) {
	if !pager.MmapSupported() {
		t.Skip("snapshots are not mapped on this platform")
	}
	const shards = 4
	dir := t.TempDir()
	s, err := New(uniform(200, 3, 9), Config{Shards: shards, SnapshotPath: filepath.Join(dir, "s.hdsn")})
	if err != nil {
		t.Fatal(err)
	}
	before := fileMappings(dir)
	switch {
	case before == nil:
		s.Close()
		t.Skip("/proc/self/maps is not readable")
	case len(before) != shards:
		s.Close()
		t.Fatalf("%d files mapped before Close, want %d: %v", len(before), shards, before)
	}
	q := []float64{0.5, 0.5, 0.5}
	open := holdGate(t, s, 1, func() error {
		_, err := s.KNN(q, 3)
		return err
	})
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for !s.closed.Load() {
		time.Sleep(100 * time.Microsecond)
	}
	// Errorf, not Fatalf, until the gate opens: Close and the waiting
	// caller need it.
	for i := 0; i < 50 && !t.Failed(); i++ {
		if m := fileMappings(dir); !reflect.DeepEqual(m, before) {
			t.Errorf("with the gate held, Close left the mappings %v, want %v", m, before)
		}
		select {
		case err := <-closed:
			t.Errorf("Close returned %v while the gate was held", err)
			closed <- err
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := open()[0]; !errors.Is(err, ErrClosed) {
		t.Errorf("the call waiting for the gate during Close: %v, want ErrClosed", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if m := fileMappings(dir); len(m) != 0 {
		t.Fatalf("mappings left after Close: %v", m)
	}
	if _, err := s.KNN(q, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("KNN after Close: %v, want ErrClosed", err)
	}
	if _, err := s.RangeCount(q, 0.5); !errors.Is(err, ErrClosed) {
		t.Fatalf("RangeCount after Close: %v, want ErrClosed", err)
	}
}

// TestDurableEveryGeneration checks FlattenEvery-triggered
// publications also commit, not just explicit Flush.
func TestDurableEveryGeneration(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snap")
			s, err := New(uniform(10, 3, 5), Config{Shards: shards, SnapshotPath: path, FlattenEvery: 10})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Ten inserts per shard fill every shard once.
			for _, p := range uniform(10*shards, 3, 6) {
				if err := s.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if want := 10 + 10*shards; committedPoints(t, path) != want {
				t.Fatalf("committed files hold %d points, want %d after the automatic publications",
					committedPoints(t, path), want)
			}
		})
	}
}
