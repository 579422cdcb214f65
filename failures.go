package ppa

import (
	"fmt"

	"ppa/internal/multicore"
	"ppa/internal/power"
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
	// ConsistentAfterEach records the verdict after each recovery: no word
	// lost at the contract points, the recovered register state intact,
	// and no objection from the oracle when one is attached.
	ConsistentAfterEach []bool
	// TotalInconsistencies sums the words lost at the contract points
	// across all failures (0 for a crash-consistent scheme).
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
// per-recovery verdict failed and no contract-point word was lost.
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
// at each scheduled cycle the machine takes the same outage step as
// RunWithFailure — JIT checkpoint, recovery under the scheme's contract,
// verdict, resume at each thread's contract point — until the workload
// completes or the schedule runs out of failures (after which the run
// completes undisturbed).
func RunWithFailureSchedule(rc RunConfig, schedule FailureSchedule) (*ScheduleOutcome, error) {
	w, sch, insts, err := rc.resolve()
	if err != nil {
		return nil, err
	}
	sys, err := multicore.NewSystem(rc.machine(len(w.Threads), sch), w)
	if err != nil {
		return nil, err
	}
	defer func() { sys.Release() }()

	out := &ScheduleOutcome{}
	var globalCycle uint64
	for round := 0; ; round++ {
		if round > 10_000 {
			return nil, fmt.Errorf("ppa: failure schedule did not terminate")
		}
		var done bool
		if next, ok := schedule.Next(globalCycle); ok {
			done, err = sys.RunUntil(next - globalCycle)
		} else {
			// No more failures: run to completion.
			done, err = true, sys.Run(runBudget(insts))
		}
		if err != nil {
			return nil, err
		}
		globalCycle += sys.Cycle()
		if done {
			out.TotalCycles = globalCycle
			out.Completed = true
			return out, nil
		}
		fo, resumed, oerr := rc.outage(sys, w, sch)
		if oerr != nil {
			return nil, oerr
		}
		sys = resumed
		out.Failures++
		out.FailCycles = append(out.FailCycles, globalCycle)
		out.CheckpointBytes += fo.CheckpointBytes
		out.TotalInconsistencies += fo.Inconsistencies
		out.ConsistentAfterEach = append(out.ConsistentAfterEach,
			fo.Consistent && fo.ArchConsistent && fo.OracleViolation == "")
	}
}
