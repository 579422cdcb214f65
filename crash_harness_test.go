package ppa

import (
	"errors"
	"testing"

	"ppa/internal/mutation"
)

// The crash harnesses share one recovery protocol and one machine builder.
// These tests pin the behaviours that separate copies of either had lost.

// TestCrashHarnessScheduleTxnContract: the log-based transaction schemes
// recover to their last region-commit marker, not to the committed prefix,
// so a schedule of repeated outages must judge them at the marker points and
// find nothing lost.
func TestCrashHarnessScheduleTxnContract(t *testing.T) {
	for _, s := range []Scheme{SchemeUndoLog, SchemeRedoTxn} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			out, err := RunWithFailureSchedule(
				RunConfig{App: "mcf", Scheme: s, InstsPerThread: 20_000},
				FailEvery(7000, 3000))
			if err != nil {
				t.Fatal(err)
			}
			if out.Failures < 10 {
				t.Fatalf("only %d outages struck", out.Failures)
			}
			if !out.Completed {
				t.Fatal("workload did not complete across the outages")
			}
			if !out.Consistent() {
				t.Fatalf("%d words lost across %d outages", out.TotalInconsistencies, out.Failures)
			}
		})
	}
}

// TestCrashHarnessResumesCustomizedMachine: the machine that resumes after
// recovery is the one rc.Customize describes, not the Table 2 default. An
// 8-entry ROB more than doubles mcf's cycles in a plain run, so the resumed
// leg must be far slower than the default machine's from the same crash
// cycle; the two resume points differ a little, the machines a lot.
func TestCrashHarnessResumesCustomizedMachine(t *testing.T) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 20_000}
	plain, err := RunWithFailure(rc, 9000)
	if err != nil {
		t.Fatal(err)
	}
	rc.Customize = func(cfg *MachineConfig) { cfg.Pipeline.ROBSize = 8 }
	custom, err := RunWithFailure(rc, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ResumedResult == nil || custom.ResumedResult == nil {
		t.Fatal("a run finished before the crash")
	}
	if !custom.Consistent {
		t.Fatalf("customized machine lost %d words", custom.Inconsistencies)
	}
	if c, p := custom.ResumedResult.Cycles, plain.ResumedResult.Cycles; 2*c < 3*p {
		t.Fatalf("resumed leg took %d cycles with an 8-entry ROB, %d without: it ran on the default machine", c, p)
	}
}

// TestCrashHarnessScheduleLockstep: a schedule run under the lockstep
// oracle surfaces a seeded commit-stream bug as an *OracleError, as Run and
// RunWithFailure do.
func TestCrashHarnessScheduleLockstep(t *testing.T) {
	mutation.Enable(mutation.PipelineLCPCSkew)
	defer mutation.Disable()
	_, err := RunWithFailureSchedule(
		RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 3000, Lockstep: true},
		FailEvery(4000, 2000))
	var oe *OracleError
	if !errors.As(err, &oe) {
		t.Fatalf("schedule under a seeded lockstep bug returned %v, want *OracleError", err)
	}
}
