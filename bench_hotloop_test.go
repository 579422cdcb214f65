package ppa

// Hot-loop and sweep-engine benchmarks: the per-cycle cost of
// Core.Step+Hierarchy.Tick (the quantity the allocation-free refactor
// targets), and the torture sweep's sequential-vs-parallel wall clock.
// TestCoreStepAllocCeiling is the CI gate that keeps the cycle loop
// allocation-free; BENCH_PR3.json (see cmd/ppabench -benchjson) commits the
// measured trajectory.

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"ppa/internal/litmus"
	"ppa/internal/multicore"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// coreStepAllocCeiling is the committed allocs-per-cycle budget for a warm
// single-core PPA system. The refactored loop measures ~0.01 (the residue
// is amortized map growth in the volatile dirty-word layer); the ceiling
// leaves slack for noise while still failing on any per-cycle allocation
// sneaking back in (the old word-map loop sat around 1.5).
const coreStepAllocCeiling = 0.25

// BenchmarkCoreStep measures one cycle of a warm single-core PPA system —
// the simulator's innermost loop. allocs/op is the headline number: it must
// stay ~0.
func BenchmarkCoreStep(b *testing.B) {
	rc := RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 2_000_000}
	sys, err := NewSystem(rc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RunUntil(20_000); err != nil { // warm caches and queues
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := sys.RunUntil(sys.Cycle() + 1)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			b.StopTimer()
			if sys, err = NewSystem(rc); err != nil {
				b.Fatal(err)
			}
			if _, err = sys.RunUntil(20_000); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// TestCoreStepAllocCeiling is the allocation regression gate for the cycle
// loop. It fails when a warm system's per-cycle allocation average exceeds
// the committed ceiling.
func TestCoreStepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	sys, err := NewSystem(RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunUntil(20_000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20_000, func() {
		if _, err := sys.RunUntil(sys.Cycle() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg > coreStepAllocCeiling {
		t.Fatalf("hot loop allocates %.3f objects/cycle, ceiling %.2f — "+
			"a per-cycle allocation crept back into Core.Step/Hierarchy.Tick",
			avg, coreStepAllocCeiling)
	}
}

// machineBuildAllocCeiling is the committed heap budget, in bytes, for
// building and releasing one 4-core litmus-sized machine once released
// cache storage is reused. The residue measures ~135 KB, nearly all of it
// the cores' pipeline queues and rename register files; the ceiling leaves
// about twice that. Allocating the Table 2 tag arrays and write buffers
// afresh costs ~4.6 MB per build, so the gate fails the moment storage
// reuse breaks.
const machineBuildAllocCeiling = 256 << 10

// TestMachineBuildAllocCeiling is the allocation gate for machine builds,
// which dominate litmus and torture sweeps: every schedule and crash point
// builds a machine and releases it.
func TestMachineBuildAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	c, err := litmus.Compile(litmus.Generate(litmus.GenOptions{Seed: 1, Count: 1, Cores: 4})[0])
	if err != nil {
		t.Fatal(err)
	}
	w := &workload.Workload{
		Profile: workload.Profile{Name: "litmus", DepDistance: 1, Threads: len(c.Progs), SyncContention: 1},
		Threads: c.Progs,
	}
	// The litmus harness's machine: Table 2 caches, short persist latencies.
	cfg := multicore.DefaultConfig(len(c.Progs), persist.PPADefault())
	cfg.Hierarchy.PersistTransit = 24
	cfg.Hierarchy.PersistLag = 60
	build := func() {
		sys, err := multicore.NewSystem(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		sys.Release()
	}
	// Same measuring conditions as TestTorturePointAllocCeiling: no
	// collection to empty the pools, one P so no storage is stranded in
	// another P's private pool slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build() // fill the storage pools
	const builds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("NewSystem+Release allocates %d bytes per 4-core machine", perBuild)
	if perBuild > machineBuildAllocCeiling {
		t.Fatalf("building a machine allocates %d bytes, ceiling %d — "+
			"released cache storage is no longer reused", perBuild, machineBuildAllocCeiling)
	}
}

// torturePointAllocCeiling is the committed heap budget, in bytes, for one
// oracle-checked torture point on mcf at 2000 instructions once the
// workload trace is shared: ~142–170 KB under ppa, undolog, redotxn and
// htpm. Regenerating the ~70 KB trace per point costs 213–241 KB, so the
// gate fails the moment a point generates its own trace again.
const torturePointAllocCeiling = 200 << 10

// TestTorturePointAllocCeiling is the allocation gate for crash sweeps:
// every point of a sweep runs the same configuration, so after one warm
// point neither the trace nor the cache storage should be allocated again.
// The collector is off while it measures: a collection empties the pools
// of released cache storage, and the next point would pay for refilling
// them at a moment that depends on GC timing, not on the code. It also
// runs on one P, as testing.AllocsPerRun does: a sync.Pool's per-P private
// slot cannot be taken from another P, so with several Ps a point misses
// storage released on a different one at a rate set by the scheduler.
func TestTorturePointAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	points := TorturePoints(3, 40, 500, 12_000)
	for _, s := range []Scheme{SchemePPA, SchemeUndoLog, SchemeRedoTxn, SchemeHTPM} {
		rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000, Lockstep: true}
		if _, err := RunTorturePoint(rc, points[0]); err != nil { // warm
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range points {
			if _, err := RunTorturePoint(rc, p); err != nil {
				t.Fatalf("%s %v: %v", s, p, err)
			}
		}
		runtime.ReadMemStats(&after)
		perPoint := (after.TotalAlloc - before.TotalAlloc) / uint64(len(points))
		t.Logf("%s: RunTorturePoint allocates %d bytes per point", s, perPoint)
		if perPoint > torturePointAllocCeiling {
			t.Errorf("%s: a torture point allocates %d bytes, ceiling %d — "+
				"the sweep no longer shares its workload trace", s, perPoint, torturePointAllocCeiling)
		}
	}
}

func benchTorturePoints() (RunConfig, []TorturePoint) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 1000}
	return rc, TorturePoints(1, 100, 200, 3000)
}

func BenchmarkTortureSweepSequential(b *testing.B) {
	rc, points := benchTorturePoints()
	for i := 0; i < b.N; i++ {
		rep, err := RunTorture(rc, points, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Points != len(points) {
			b.Fatal("short sweep")
		}
	}
}

func BenchmarkTortureSweepParallel(b *testing.B) {
	rc, points := benchTorturePoints()
	for i := 0; i < b.N; i++ {
		rep, err := RunTortureParallel(context.Background(), rc, points, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Points != len(points) {
			b.Fatal("short sweep")
		}
	}
}
