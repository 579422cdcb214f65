package ppa

import (
	"fmt"

	"ppa/internal/multicore"
	"ppa/internal/power"
	"ppa/internal/recovery"
	"ppa/internal/workload"
)

// This file implements repeated-failure orchestration: energy-harvesting
// heritage says power can fail again at any point — including immediately
// after a recovery. RunWithFailureSchedule drives a workload through an
// arbitrary failure schedule, checkpointing, recovering, verifying, and
// resuming at every outage until the programs complete.

// FailureSchedule re-exports the failure-injection schedules.
type FailureSchedule = power.Schedule

// FailAt fails once at a fixed cycle.
func FailAt(cycle uint64) FailureSchedule { return power.At(cycle) }

// FailEvery fails periodically.
func FailEvery(period, offset uint64) FailureSchedule {
	return power.Every{Period: period, Offset: offset}
}

// FailRandomly fails n times at seeded-random cycles in [min, max).
func FailRandomly(seed int64, n int, min, max uint64) FailureSchedule {
	return power.NewRandom(seed, n, min, max)
}

// ScheduleOutcome summarizes a run through a failure schedule.
type ScheduleOutcome struct {
	// Failures is the number of power failures that actually struck.
	Failures int
	// FailCycles records each failure's global cycle (cumulative across
	// resumes).
	FailCycles []uint64
	// ConsistentAfterEach records the crash-consistency verdict after each
	// recovery; all must be true for PPA.
	ConsistentAfterEach []bool
	// TotalInconsistencies sums committed-prefix words lost across all
	// failures (0 for a crash-consistent scheme).
	TotalInconsistencies int
	// Completed reports whether every thread finished its trace.
	Completed bool
	// TotalCycles is the cumulative simulated cycles across all power-on
	// periods.
	TotalCycles uint64
	// CheckpointBytes sums the encoded checkpoint sizes across failures.
	CheckpointBytes int
}

// Consistent reports whether every recovery satisfied the contract: no
// per-recovery verdict failed and no committed-prefix word was lost.
func (o *ScheduleOutcome) Consistent() bool {
	if o.TotalInconsistencies != 0 {
		return false
	}
	for _, ok := range o.ConsistentAfterEach {
		if !ok {
			return false
		}
	}
	return true
}

// RunWithFailureSchedule executes a workload under repeated power failures:
// at each scheduled cycle the machine loses power, JIT-checkpoints,
// recovers, verifies the crash-consistency contract, and resumes every
// thread after its LCPC — until the workload completes or the schedule
// runs out of failures (after which the run completes undisturbed).
func RunWithFailureSchedule(rc RunConfig, schedule FailureSchedule) (*ScheduleOutcome, error) {
	prof, sch, insts, err := rc.resolve()
	if err != nil {
		return nil, err
	}
	w, err := workload.New(prof, insts)
	if err != nil {
		return nil, err
	}

	out := &ScheduleOutcome{}
	startAt := make([]int, len(w.Threads))
	var sys *multicore.System

	build := func() (*multicore.System, error) {
		cfg := multicore.DefaultConfig(len(w.Threads), sch)
		if rc.Customize != nil {
			rc.Customize(&cfg)
		}
		if sys == nil {
			return multicore.NewSystem(cfg, w)
		}
		return multicore.NewSystemResumed(cfg, w, sys.Device(), startAt)
	}

	sys, err = build()
	if err != nil {
		return nil, err
	}
	defer func() { sys.Release() }()

	var globalCycle uint64
	maxCycles := uint64(insts)*4000 + 1_000_000
	for round := 0; ; round++ {
		if round > 10_000 {
			return nil, fmt.Errorf("ppa: failure schedule did not terminate")
		}
		next, ok := schedule.Next(globalCycle)
		if !ok {
			// No more failures: run to completion.
			if err := sys.Run(maxCycles); err != nil {
				return nil, err
			}
			out.TotalCycles = globalCycle + sys.Cycle()
			out.Completed = true
			return out, nil
		}
		local := next - globalCycle
		done, rerr := sys.RunUntil(local)
		if rerr != nil {
			return nil, rerr
		}
		if done {
			out.TotalCycles = globalCycle + sys.Cycle()
			out.Completed = true
			return out, nil
		}
		globalCycle += sys.Cycle()

		// Power failure: checkpoint, lose volatile state, then recover from
		// the NVM checkpoint area — the only state a real outage leaves
		// behind — validating framing and checksums on the way in.
		sys.Crash()
		out.Failures++
		out.FailCycles = append(out.FailCycles, globalCycle)
		images, lerr := recovery.LoadImages(sys.Device())
		if lerr != nil {
			return nil, lerr
		}
		consistent := true
		for _, im := range images {
			out.CheckpointBytes += len(im.Encode())
			prog := sys.Cores()[im.CoreID].Program()
			if _, rerr := recovery.Replay(sys.Device(), im); rerr != nil {
				return nil, rerr
			}
			if n := recovery.CountInconsistencies(sys.Device(), prog, im.Committed); n > 0 {
				consistent = false
				out.TotalInconsistencies += n
			}
			startAt[im.CoreID] = im.Committed
		}
		out.ConsistentAfterEach = append(out.ConsistentAfterEach, consistent)
		// Recovery complete: invalidate the consumed checkpoint before
		// resuming, exactly as the recovery firmware would.
		sys.Device().ClearCheckpoint()

		sys.Release() // the resumed machine reuses its cache storage
		resumed, berr := build()
		if berr != nil {
			return nil, berr
		}
		sys = resumed
	}
}
