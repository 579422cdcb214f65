package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"ppa"
)

// pass0 runs only pass 0 of a workload and returns its digest.
func pass0(t *testing.T, w *workload, seed uint64) uint64 {
	t.Helper()
	l, err := runLoop(w, seed, newTracer(false), nil, func(int, time.Duration) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if l.failed != 0 || l.digest == 0 {
		t.Fatalf("%s seed %d: %d of %d units failed: %v", w.name, seed, l.failed, l.attempted, l.errs)
	}
	return l.digest
}

// The digest must repeat for a seed and change with it: the first shows
// the modelled machine is deterministic, the second that the seed reaches
// the inputs.
func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads(0.02) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, b, c := pass0(t, w, 1), pass0(t, w, 1), pass0(t, w, 2)
			if a != b {
				t.Errorf("seed 1 gave digests %016x and %016x", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 gave the same digest %016x", a)
			}
		})
	}
}

// Every round over a workload's corpus must reproduce the first round's
// outcome, and with a calibrator every timed unit gets a normalized time.
func TestRoundsRepeat(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(0.02) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			l, err := runLoop(w, 3, newTracer(false), cal, func(k int, _ time.Duration) bool { return k < 2*w.corpus })
			if err != nil {
				t.Fatal(err)
			}
			if l.failed != 0 {
				t.Fatalf("%d of %d units failed: %v", l.failed, l.attempted, l.errs)
			}
			if len(l.first) != w.corpus {
				t.Fatalf("%d distinct passes, want %d", len(l.first), w.corpus)
			}
			for i := range l.times {
				if len(l.times[i]) != 2 || len(l.norm[i]) != 2 {
					t.Fatalf("unit %d: %d times and %d normalized times, want 2 of each", i, len(l.times[i]), len(l.norm[i]))
				}
			}
		})
	}
}

// Stratified failure cycles cover [lo, hi) one slice each.
func TestStratify(t *testing.T) {
	const lo, hi, n = 200, 8000, 25
	pts := stratify(ppa.TorturePoints(9, n, lo, hi), lo, hi, 11)
	seen := map[uint64]bool{}
	for _, p := range pts {
		if p.Cycle < lo || p.Cycle >= hi {
			t.Fatalf("cycle %d outside [%d, %d)", p.Cycle, lo, hi)
		}
		seen[(p.Cycle-lo)*n/(hi-lo)] = true
	}
	if len(seen) != n {
		t.Fatalf("%d points fill %d of %d slices", n, len(seen), n)
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memmove", "ppa/internal/oracle.(*Machine).checkCommit", "ppa/internal/pipeline.(*Core).Step", "ppa/internal/multicore.(*System).step"}, "oracle.check_s"},
		{[]string{"ppa/internal/nvm.(*wpq).push", "ppa/internal/nvm.(*Device).Tick", "ppa/internal/cache.(*Hierarchy).Tick"}, "nvm.tick_s"},
		{[]string{"ppa/internal/cache.(*setAssoc).lookup", "ppa/internal/cache.(*Hierarchy).Tick"}, "cache.tick_s"},
		{[]string{"runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "ppa/internal/pipeline.(*Core).Step"}, "runtime.gc_s"},
		{[]string{"runtime.mallocgc", "ppa/internal/cache.newSetAssoc", "ppa/internal/multicore.newSystem", "ppa/internal/multicore.NewSystem"}, "multicore.build_s"},
		{[]string{"ppa/internal/workload.New.func1", "ppa/internal/workload.New"}, "workload.gen_s"},
		{[]string{"ppa/internal/workload.NewThread"}, otherLayer},
		{[]string{"ppa/internal/persist.redoTxnScheme.Recover", "ppa.RunTorturePoint"}, "recovery.recover_s"},
		{[]string{"ppa/internal/litmus/px86.(*Model).MemberKey", "ppa/internal/litmus.(*recorder).onAccept"}, "litmus.model_s"},
		{[]string{"runtime.memclrNoHeapPointers", "ppa/internal/cache.(*Hierarchy).PowerFail", "ppa/internal/litmus.runSchedule"}, "checkpoint.crash_s"},
		{[]string{"main.main"}, otherLayer},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// A real CPU profile of a small detailed run decodes, and the run's time
// lands in its cycle-loop layers.
func TestSplitProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	w := detailedSim(0.2)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		pass0(t, w, 1)
	}
	pprof.StopCPUProfile()
	split, err := splitProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, loop float64
	for name, v := range split {
		total += v
		if name == "pipeline.step_s" || name == "cache.tick_s" || name == "nvm.tick_s" {
			loop += v
		}
	}
	if total == 0 || loop == 0 {
		t.Fatalf("split %v: total %.3fs, cycle loop %.3fs", split, total, loop)
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes([]span{
		{Name: "unit", ID: 1, Start: 0, End: 10},
		{Name: "System.Run", ID: 2, Parent: 1, Start: 2, End: 8},
	})
	if self["unit"] != 4 || self["System.Run"] != 6 {
		t.Fatalf("self times %v", self)
	}
}
