package ppa

import (
	"strings"
	"testing"

	"ppa/internal/persist"
)

// TestSchemeConformanceMatrix is the crash harness × scheme conformance
// matrix: every persistence scheme in the zoo runs every crash harness, with
// the assertions keyed to the scheme's declared recovery contract rather
// than to its name or to the harness — a scheme added behind the
// persist.Scheme interface is conformance tested by construction, and no
// harness can judge a scheme by a contract other than its own. Every leg
// carries the lockstep oracle.
//
//   - clean: an uninterrupted run. The commit-stream oracle applies to
//     every scheme; schemes whose image is built from the accept stream also
//     get the final durable-image check.
//
//   - RunWithFailure: six crash points spread across the run. Contract
//     schemes (committed-prefix and transaction-boundary) must recover a
//     consistent image and register state and pass the oracle's
//     recovered-image check. Contract-free schemes (baseline, DRAM-only,
//     ReplayCache) must still converge, but nothing is promised about the
//     image and the oracle must not judge them. Either way the programs
//     resume to completion under the oracle.
//
//   - RunWithFailureSchedule: repeated outages through one run. Contract
//     schemes must come out consistent after every recovery; every scheme
//     must complete.
//
//   - RunTorturePoint: points of every fault kind, nested outages included.
//     Contract schemes must show no violation. Contract-free schemes may
//     lose committed words, and nothing else.
func TestSchemeConformanceMatrix(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			cfg, err := SchemeConfig(s)
			if err != nil {
				t.Fatal(err)
			}
			contract := persist.SchemeFor(cfg).Contract()
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 3000, Lockstep: true}

			res, err := Run(rc)
			if err != nil {
				t.Fatalf("clean lockstep run: %v", err)
			}
			if res.Cycles == 0 {
				t.Fatal("no cycles simulated")
			}
			t.Run("RunWithFailure", func(t *testing.T) { conformRunWithFailure(t, rc, contract, res.Cycles) })
			t.Run("RunWithFailureSchedule", func(t *testing.T) { conformSchedule(t, rc, contract, res.Cycles) })
			t.Run("RunTorturePoint", func(t *testing.T) { conformTorture(t, rc, contract, res.Cycles) })
		})
	}
}

func conformRunWithFailure(t *testing.T, rc RunConfig, contract persist.RecoveryContract, cycles uint64) {
	crashed := 0
	for i := 1; i <= 6; i++ {
		cycle := max(cycles*uint64(i)/8, 1)
		out, err := RunWithFailure(rc, cycle)
		if err != nil {
			t.Fatalf("crash at cycle %d: %v", cycle, err)
		}
		if out.CompletedBeforeFailure {
			continue
		}
		crashed++
		if out.ResumedResult == nil {
			t.Fatalf("crash at cycle %d: recovery did not resume", cycle)
		}
		if len(out.PerCore) == 0 {
			t.Fatalf("crash at cycle %d: no per-core recovery outcomes", cycle)
		}
		if contract == persist.RecoverNone {
			if out.OracleChecked {
				t.Fatalf("crash at cycle %d: oracle judged a contract-free scheme", cycle)
			}
			continue
		}
		if !out.Consistent {
			t.Fatalf("crash at cycle %d: %d inconsistent words after recovery", cycle, out.Inconsistencies)
		}
		if !out.ArchConsistent {
			t.Fatalf("crash at cycle %d: recovered register state diverged", cycle)
		}
		if !out.OracleChecked {
			t.Fatalf("crash at cycle %d: oracle recovery check did not engage", cycle)
		}
		if out.OracleViolation != "" {
			t.Fatalf("crash at cycle %d: oracle violation: %s", cycle, out.OracleViolation)
		}
	}
	if crashed == 0 {
		t.Fatal("every crash point fell after workload completion; the leg exercised nothing")
	}
}

func conformSchedule(t *testing.T, rc RunConfig, contract persist.RecoveryContract, cycles uint64) {
	period := max(cycles/5, 1)
	out, err := RunWithFailureSchedule(rc, FailEvery(period, period/2))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if !out.Completed {
		t.Fatal("workload did not complete across the outages")
	}
	if out.Failures < 3 {
		t.Fatalf("only %d outages struck", out.Failures)
	}
	if contract != persist.RecoverNone && !out.Consistent() {
		t.Fatalf("%d words lost across %d outages (per outage: %v)",
			out.TotalInconsistencies, out.Failures, out.ConsistentAfterEach)
	}
}

func conformTorture(t *testing.T, rc RunConfig, contract persist.RecoveryContract, cycles uint64) {
	nested := 0
	for _, p := range TorturePoints(3, 15, 200, cycles) {
		out, err := RunTorturePoint(rc, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if out.RecoveryAttempts > 1 {
			nested++
		}
		verdicts := 0
		for _, v := range []bool{out.CompletedBeforeFailure, out.Detected, out.Recovered} {
			if v {
				verdicts++
			}
		}
		if verdicts != 1 {
			t.Fatalf("%v: %d verdicts, want exactly one of completed/detected/recovered: %+v", p, verdicts, out)
		}
		if out.Violation == "" {
			continue
		}
		if contract != persist.RecoverNone || !strings.HasPrefix(out.Violation, "committed-prefix violation") {
			t.Fatalf("%v: %s", p, out.Violation)
		}
	}
	if nested == 0 {
		t.Fatal("no nested outage interrupted a recovery pass")
	}
}
