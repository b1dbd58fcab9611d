package serve

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hdidx/internal/pager"
	"hdidx/internal/rtree"
)

// TestMmapServeHammer is the concurrency proof of mmap-backed serving:
// readers hammer k-NN, range, and stats across well over 100 snapshot
// generations — republished continuously by a writer, with a full
// close-and-recover from the durable file in the middle — while every
// superseded generation's mapping is unmapped as its last pin drains.
// Run under -race, any unmap racing a pinned reader is a read of freed
// (unmapped) memory the detector or a SIGSEGV would surface.
//
// The NaN poison makes the zero-copy claim falsifiable: a publish hook
// poisons every resident flattened tree *after* its bytes are written
// and mapped, so the only clean copy of the points is the file
// mapping. A single NaN coordinate in any served neighbor would prove
// a row was read from the resident tree instead of the map.
func TestMmapServeHammer(t *testing.T) {
	if !pager.MmapSupported() {
		t.Skip("mmap backend unavailable on this platform")
	}
	if testing.Short() {
		t.Skip("hammer test")
	}
	const (
		dim          = 6
		flattenEvery = 16
		genTarget    = 60 // per phase; two phases >= 120 generations
		readers      = 4
	)
	path := filepath.Join(t.TempDir(), "hammer.hdsn")

	var poisoned atomic.Int64
	publishHook = func(resident *rtree.FlatTree, sn *snapshot) {
		if sn.pg == nil {
			return // resident generation: poisoning it would serve NaNs
		}
		for i := range resident.Points.Data {
			resident.Points.Data[i] = math.NaN()
		}
		poisoned.Add(1)
	}
	t.Cleanup(func() { publishHook = nil })

	initial := uniform(400, dim, 1)
	cfg := Config{
		FlattenEvery: flattenEvery,
		SnapshotPath: path,
	}
	srv, err := New(initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !srv.Stats().Mapped {
		t.Fatal("first generation not mmap-backed")
	}

	// hammer runs readers against srv while the writer republishes
	// until the generation counter passes target, then verifies every
	// result stayed NaN-free.
	hammer := func(srv *Server, target int64) {
		t.Helper()
		var wg sync.WaitGroup
		stop := make(chan struct{})
		fail := make(chan string, readers+1)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				qs := uniform(64, dim, seed)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					q := qs[i%len(qs)]
					res, err := srv.KNN(q, 5)
					if err != nil {
						fail <- "knn: " + err.Error()
						return
					}
					for _, nb := range res.Neighbors {
						for _, v := range nb {
							if math.IsNaN(v) {
								fail <- "NaN neighbor: row served from the poisoned resident tree, not the map"
								return
							}
						}
					}
					if _, _, err := srv.RangeCount(q, 0.2); err != nil {
						fail <- "range: " + err.Error()
						return
					}
					if i%16 == 0 {
						srv.Stats()
					}
				}
			}(int64(100 + r))
		}
		pts := uniform(int(target)*flattenEvery+flattenEvery, dim, 7)
		for _, p := range pts {
			if err := srv.Insert(p); err != nil {
				fail <- "insert: " + err.Error()
				break
			}
			if srv.Generation() >= target {
				break
			}
		}
		close(stop)
		wg.Wait()
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
	}

	hammer(srv, genTarget)
	st := srv.Stats()
	if !st.Mapped {
		t.Fatal("mid-run generation not mmap-backed")
	}
	if st.Generation < genTarget {
		t.Fatalf("only %d generations published, want >= %d", st.Generation, genTarget)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats(); got.RetiredSnapshots != got.Generation-1 {
		t.Fatalf("%d generations but %d retired after quiesce; unmap lifecycle leaked",
			got.Generation, got.RetiredSnapshots)
	}

	// Recovery: a fresh server resumes from the durable file — which
	// was written before its resident twin was poisoned, so recovered
	// points must be clean — and survives the same hammer again.
	srv2, err := New(nil, cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if srv2.Len() < len(initial) {
		t.Fatalf("recovered %d points, want >= %d", srv2.Len(), len(initial))
	}
	hammer(srv2, genTarget)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if poisoned.Load() == 0 {
		t.Fatal("publish hook never poisoned a mapped generation; the NaN proof proved nothing")
	}
}

// TestDurableReopenFailureIsLoud damages one published shard file
// between its write and the reopen that verifies it (one byte of the
// points section flipped) and pins the one error rule of publication:
// the Insert or Flush that published the file returns an error naming
// the shard and generation, the generation is still live from the
// resident tree (answers equal brute force over every published point)
// but that shard is not mapped, and the failed file is neither
// committed nor left on disk: the manifest keeps naming the shard's
// previous file, so a restart succeeds without the failed generation's
// points of that shard. The same holds when the failing publication is
// a restart's boot publication, whose failed New leaves no file mapped,
// and the restart after it recovers every committed point. Both shard
// counts run the same assertions; at S = 1 the victim is the only
// shard. The verifying reopen runs on every platform; only whether a
// shard is mapped depends on the platform.
func TestDurableReopenFailureIsLoud(t *testing.T) {
	const dim, k = 4, 7
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.hdsn")
			cfg := Config{Shards: shards, FlattenEvery: 1 << 20, SnapshotPath: path}
			points := uniform(200, dim, 61)
			srv, err := New(points, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if got := srv.Stats().Mapped; got != pager.MmapSupported() {
				t.Fatalf("boot generation Mapped = %v, want %v", got, pager.MmapSupported())
			}

			// Six inserts reach every shard, so the Flush rewrites all
			// of them; only the last shard's file is damaged.
			victim := shards - 1
			inserts := uniform(6, dim, 62)
			for _, p := range inserts {
				if err := srv.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			points = append(points, inserts...)
			// damaged holds the bytes of the last damaged file.
			var damaged []byte
			damageVictim := func(written string) {
				if id, _, ok := pager.ParseShardPath(path, written); ok && id == victim {
					damagePoints(t, written)
					var err error
					if damaged, err = os.ReadFile(written); err != nil {
						t.Fatal(err)
					}
				}
			}
			// removed fails if a file under the snapshot directory still
			// holds the damaged bytes.
			removed := func(after string) {
				t.Helper()
				files, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
				for _, f := range files {
					if b, err := os.ReadFile(f); err == nil && bytes.Equal(b, damaged) {
						t.Fatalf("after the failed %s, %s still holds the damaged bytes", after, f)
					}
				}
			}
			t.Cleanup(func() { writtenHook = nil })
			writtenHook = damageVictim
			err = srv.Flush()
			writtenHook = nil
			gen := srv.Generation()
			if damaged == nil {
				t.Fatal("no published file was damaged")
			}
			want := fmt.Sprintf("generation %d (shard %d)", gen, victim)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("Flush returned %v, want a checksum error naming %q", err, want)
			}
			removed("Flush")

			st := srv.Stats()
			if st.Points != len(points) {
				t.Fatalf("%d points served, want %d", st.Points, len(points))
			}
			for i, ss := range st.Shards {
				if ss.Generation != gen {
					t.Fatalf("shard %d serves generation %d, want %d", i, ss.Generation, gen)
				}
				if want := pager.MmapSupported() && i != victim; ss.Mapped != want {
					t.Fatalf("shard %d Mapped = %v, want %v", i, ss.Mapped, want)
				}
			}
			for _, q := range uniform(20, dim, 63) {
				res, err := srv.KNN(q, k)
				if err != nil {
					t.Fatal(err)
				}
				ds := make([]float64, len(points))
				for i, p := range points {
					ds[i] = dist(q, p)
				}
				sort.Float64s(ds)
				if res.Radius != ds[k-1] {
					t.Fatalf("radius %v, brute force %v", res.Radius, ds[k-1])
				}
				for i, nb := range res.Neighbors {
					if dist(q, nb) != ds[i] {
						t.Fatalf("neighbor %d is not the brute-force %d-th nearest point", i, i+1)
					}
				}
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			checkManifest := func() {
				t.Helper()
				m, err := pager.ReadManifest(path)
				if err != nil {
					t.Fatal(err)
				}
				for i, ms := range m.Shards {
					if ms.Generation == 0 {
						t.Fatalf("manifest names no file for shard %d", i)
					}
					named := pager.ShardPath(path, i, ms.Generation)
					if b, err := os.ReadFile(named); err != nil || bytes.Equal(b, damaged) {
						t.Fatalf("manifest names %s, the failed file or a missing one (%v)", named, err)
					}
				}
			}
			// The victim's inserts of the failed generation were never
			// committed; every other published point was. Inserts are
			// dealt round-robin after the initial points.
			committed := len(points)
			for j := range inserts {
				if (len(points)-len(inserts)+j)%shards == victim {
					committed--
				}
			}
			restart := func() {
				t.Helper()
				restarted, err := New(nil, cfg)
				if err != nil {
					t.Fatalf("restart after a failed shard write: %v", err)
				}
				defer restarted.Close()
				if got := restarted.Len(); got != committed {
					t.Fatalf("restart recovered %d points, want %d", got, committed)
				}
			}
			restart()
			checkManifest()

			// Every file on disk now comes from that restart's boot
			// publication. A second restart whose boot write of the
			// victim's file fails keeps the victim's recovered file.
			damaged = nil
			writtenHook = damageVictim
			mapped := fileMappings(filepath.Dir(path))
			failed, err := New(nil, cfg)
			writtenHook = nil
			if err == nil {
				failed.Close()
				t.Fatal("a boot publication whose file failed verification succeeded")
			}
			if damaged == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("boot publication returned %v, want a checksum error", err)
			}
			if got := fileMappings(filepath.Dir(path)); !reflect.DeepEqual(got, mapped) {
				t.Fatalf("the failed New left the mappings %v under the snapshot directory, want %v", got, mapped)
			}
			removed("New")
			checkManifest()
			restart()
		})
	}
}

// fileMappings counts, per file under dir, the lines of /proc/self/maps
// that map it (a deleted file under its old name), or returns nil where
// the process's mappings are not readable.
func fileMappings(dir string) map[string]int {
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return nil
	}
	m := map[string]int{}
	for _, line := range strings.Split(string(b), "\n") {
		if i := strings.Index(line, dir+string(filepath.Separator)); i >= 0 {
			m[strings.TrimSuffix(line[i:], " (deleted)")]++
		}
	}
	return m
}

// damagePoints flips one byte of the points section of the snapshot
// file at path: the first coordinate of the first row, which every
// reopen checksums.
func damagePoints(t *testing.T, path string) {
	t.Helper()
	s, err := pager.OpenWith(path, pager.Options{Backend: pager.BackendReadAt})
	if err != nil {
		t.Fatalf("damage %s: %v", path, err)
	}
	ft, pb := s.Tree(), int64(s.PageBytes())
	s.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Points are the last section, padded to whole pages.
	n := int64(ft.NumPoints * ft.Dim * 8)
	b[int64(len(b))-(n+pb-1)/pb*pb] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
