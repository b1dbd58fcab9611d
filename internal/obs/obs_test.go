package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"hdidx/internal/disk"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Span("anything")
	sp.End()
	if ph := tr.Phases(); ph != nil {
		t.Errorf("nil trace Phases() = %v, want nil", ph)
	}
	if s := tr.TotalIOSeconds(); s != 0 {
		t.Errorf("nil trace TotalIOSeconds() = %g, want 0", s)
	}
	var buf bytes.Buffer
	tr.WriteText(&buf)
	if buf.Len() != 0 {
		t.Errorf("nil trace WriteText wrote %q", buf.String())
	}
}

func TestSpansAccumulateByName(t *testing.T) {
	tr := New("test", nil)
	for i := 0; i < 3; i++ {
		sp := tr.Span("scan")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	sp := tr.Span("build")
	sp.End()

	phases := tr.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(phases), phases)
	}
	if phases[0].Name != "scan" || phases[1].Name != "build" {
		t.Errorf("phase order = %q, %q; want scan, build", phases[0].Name, phases[1].Name)
	}
	if phases[0].Count != 3 {
		t.Errorf("scan Count = %d, want 3", phases[0].Count)
	}
	if phases[0].Wall <= 0 {
		t.Errorf("scan Wall = %v, want > 0", phases[0].Wall)
	}
	if phases[0].IOSeconds != 0 {
		t.Errorf("CPU-only trace priced I/O: %g", phases[0].IOSeconds)
	}
}

func TestCounterAttribution(t *testing.T) {
	d := disk.New(disk.DefaultParams())
	f := d.Alloc(10 * int64(d.Params().PageBytes))
	tr := New("io", d)

	sp := tr.Span("read")
	f.TouchPages(0, 4)
	sp.End()
	sp = tr.Span("write")
	f.TouchPages(6, 2) // non-adjacent: one seek, two transfers
	sp.End()
	sp = tr.Span("idle")
	sp.End()

	phases := tr.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	read, write, idle := phases[0], phases[1], phases[2]
	if read.IO.Seeks != 1 || read.IO.Transfers != 4 {
		t.Errorf("read IO = %v, want 1 seek, 4 transfers", read.IO)
	}
	if write.IO.Seeks != 1 || write.IO.Transfers != 2 {
		t.Errorf("write IO = %v, want 1 seek, 2 transfers", write.IO)
	}
	if idle.IO != (disk.Counters{}) {
		t.Errorf("idle IO = %v, want zero", idle.IO)
	}

	p := d.Params()
	wantRead := read.IO.CostSeconds(p)
	if read.IOSeconds != wantRead {
		t.Errorf("read IOSeconds = %g, want %g", read.IOSeconds, wantRead)
	}
	total := tr.TotalIOSeconds()
	wantTotal := d.Counters().CostSeconds(p)
	if diff := total - wantTotal; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("TotalIOSeconds = %g, disk total = %g", total, wantTotal)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New("conc", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Span("work")
				sp.End()
			}
		}()
	}
	wg.Wait()
	phases := tr.Phases()
	if len(phases) != 1 || phases[0].Count != 800 {
		t.Fatalf("got %+v, want one phase with Count 800", phases)
	}
}

func TestConcurrentSnapshotsWithAccesses(t *testing.T) {
	// Counter snapshots must be race-free while another goroutine
	// drives disk accesses (the parallelFor scenario).
	d := disk.New(disk.DefaultParams())
	f := d.Alloc(100 * int64(d.Params().PageBytes))
	tr := New("snap", d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 100; i++ {
			f.TouchPages(i, 1)
		}
	}()
	for i := 0; i < 100; i++ {
		sp := tr.Span("observe")
		before := d.Counters()
		_ = d.Counters().Sub(before)
		sp.End()
	}
	<-done
	if c := d.Counters(); c.Transfers != 100 {
		t.Errorf("transfers = %d, want 100", c.Transfers)
	}
}

func TestRegistry(t *testing.T) {
	r := &Registry{}
	if r.Enabled() {
		t.Fatal("fresh registry is enabled")
	}
	r.Add(New("a", nil))
	r.Add(nil) // ignored
	r.Add(New("b", nil))
	traces := r.Traces()
	if len(traces) != 2 || traces[0].name != "a" || traces[1].name != "b" {
		t.Fatalf("Traces() = %v", traces)
	}
	r.Reset()
	if len(r.Traces()) != 0 {
		t.Fatal("Reset did not drop traces")
	}
}

func TestTraceIfEnabled(t *testing.T) {
	Default.SetEnabled(false)
	Default.Reset()
	if tr := TraceIfEnabled("off", nil); tr != nil {
		t.Fatalf("disabled registry returned %v", tr)
	}
	Default.SetEnabled(true)
	defer func() {
		Default.SetEnabled(false)
		Default.Reset()
	}()
	tr := TraceIfEnabled("on", nil)
	if tr == nil {
		t.Fatal("enabled registry returned nil")
	}
	got := Default.Traces()
	if len(got) != 1 || got[0] != tr {
		t.Fatalf("registry holds %v, want the returned trace", got)
	}
}

func TestReporters(t *testing.T) {
	d := disk.New(disk.DefaultParams())
	f := d.Alloc(int64(d.Params().PageBytes))
	tr := New("report", d)
	sp := tr.Span("scan")
	f.TouchPages(0, 1)
	sp.End()

	var buf bytes.Buffer
	tr.WriteText(&buf)
	text := buf.String()
	for _, want := range []string{"trace report", "scan", "total"} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, text)
		}
	}

	r := &Registry{}
	r.Add(tr)
	r.Add(New("second", nil))
	buf.Reset()
	r.WriteText(&buf)
	if got := strings.Count(buf.String(), "trace "); got != 2 {
		t.Errorf("registry WriteText rendered %d traces, want 2:\n%s", got, buf.String())
	}
}
