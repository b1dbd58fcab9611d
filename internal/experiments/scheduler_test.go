package experiments

import (
	"reflect"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/par"
)

func forceSweepWorkers(t *testing.T, n int) {
	t.Helper()
	prev := par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(prev) })
}

func TestTaskSeedDistinctAndStable(t *testing.T) {
	seen := map[int64]int64{}
	for task := int64(0); task < 1000; task++ {
		s := taskSeed(1, task)
		if prev, dup := seen[s]; dup {
			t.Fatalf("taskSeed(1, %d) == taskSeed(1, %d)", task, prev)
		}
		seen[s] = task
		if s != taskSeed(1, task) {
			t.Fatalf("taskSeed(1, %d) not stable", task)
		}
	}
	if taskSeed(1, 0) == taskSeed(2, 0) {
		t.Fatal("different roots map to the same task seed")
	}
	if taskRng(1, 3).Int63() != taskRng(1, 3).Int63() {
		t.Fatal("taskRng not reproducible")
	}
}

func TestRunTasksFillsRowsByIndex(t *testing.T) {
	forceSweepWorkers(t, 4)
	rows := make([]int64, 200)
	if err := runTasks(len(rows), func(i int) error {
		rows[i] = taskRng(9, int64(i)).Int63()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != taskRng(9, int64(i)).Int63() {
			t.Fatalf("row %d not deterministic", i)
		}
	}
}

func TestSharedEnvironmentCachesByKey(t *testing.T) {
	opt := tinyOpt()
	a := sharedEnvironment(dataset.Texture60, opt)
	b := sharedEnvironment(dataset.Texture60, opt)
	if a != b {
		t.Fatal("same (spec, options) returned different environments")
	}
	opt2 := opt
	opt2.Seed = opt.Seed + 1
	if c := sharedEnvironment(dataset.Texture60, opt2); c == a {
		t.Fatal("different options returned the cached environment")
	}
	if d := sharedEnvironment(dataset.Color64, opt); d == a {
		t.Fatal("different spec returned the cached environment")
	}
}

// TestSweepsInvariantUnderWorkerCount is the scheduler's determinism
// contract: the drivers must return identical results whether their
// rows run sequentially or interleaved on a multi-worker pool. It runs
// the disk-predicting sweep (table3) and an in-memory sweep (fig2) at
// 1 and 4 workers and requires deep equality — per-task disks and
// per-task RNGs make scheduling order irrelevant.
func TestSweepsInvariantUnderWorkerCount(t *testing.T) {
	opt := tinyOpt()

	forceSweepWorkers(t, 1)
	t3seq, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	f2seq, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}

	forceSweepWorkers(t, 4)
	for trial := 0; trial < 2; trial++ {
		t3par, err := Table3(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(t3seq, t3par) {
			t.Fatalf("trial %d: Table3 differs across worker counts:\nseq: %+v\npar: %+v", trial, t3seq, t3par)
		}
		f2par, err := Fig2(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f2seq, f2par) {
			t.Fatalf("trial %d: Fig2 differs across worker counts:\nseq: %+v\npar: %+v", trial, f2seq, f2par)
		}
	}
}

// TestParallelSweepSmall exercises the remaining parallelized drivers
// on a multi-worker pool (under -race this is the concurrency check
// even on single-CPU hosts).
func TestParallelSweepSmall(t *testing.T) {
	forceSweepWorkers(t, 4)
	opt := tinyOpt()
	if _, err := RangeQueries(opt, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := AllDatasets(opt); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig13(opt, []int{8, 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig14(opt, []int{10, 30}); err != nil {
		t.Fatal(err)
	}
}
