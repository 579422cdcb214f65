package ppa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"testing"

	"ppa/internal/workload"
)

// traceDigest hashes every instruction of every thread of w.
func traceDigest(t *testing.T, w *workload.Workload) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for _, prog := range w.Threads {
		h.Write([]byte(prog.Name))
		if err := binary.Write(h, binary.LittleEndian, prog.Insts); err != nil {
			t.Fatal(err)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSharedTraceIsNeverWritten runs every crash harness and the sampled
// mode, under every scheme, on the one memoized trace, and requires the
// trace to come out bit-for-bit as it went in: machines share it, so a
// write by any of them would leak into every later run of the sweep.
func TestSharedTraceIsNeverWritten(t *testing.T) {
	const insts = 3000
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	w, err := generate(prof, insts)
	if err != nil {
		t.Fatal(err)
	}
	want := traceDigest(t, w)
	points := TorturePoints(11, 5, 1000, 12_000) // one point of every fault kind
	for _, s := range Schemes() {
		rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: insts, Lockstep: true}
		if fo, err := RunWithFailure(rc, 6000); err != nil || fo.CompletedBeforeFailure {
			t.Fatalf("%s RunWithFailure: no outage (err %v)", s, err)
		}
		if so, err := RunWithFailureSchedule(rc, FailEvery(5000, 2000)); err != nil || so.Failures == 0 {
			t.Fatalf("%s RunWithFailureSchedule: no outage (err %v)", s, err)
		}
		for _, p := range points {
			if out, err := RunTorturePoint(rc, p); err != nil || out.CompletedBeforeFailure {
				t.Fatalf("%s RunTorturePoint %v: no outage (err %v)", s, p, err)
			}
		}
		if _, err := RunSampled(rc, SampleConfig{Window: 500, Period: 1000}); err != nil {
			t.Fatalf("%s RunSampled: %v", s, err)
		}
		if got, err := generate(prof, insts); err != nil || got != w {
			t.Fatalf("%s: the harnesses did not run on the memoized trace", s)
		}
		if traceDigest(t, w) != want {
			t.Fatalf("%s: a harness wrote to the shared trace", s)
		}
	}
}

// TestTraceMemoHitMatchesMiss pins that a torture point's verdict does not
// depend on whether its trace came from the memo or was generated afresh
// after an interleaved run of another configuration evicted it.
func TestTraceMemoHitMatchesMiss(t *testing.T) {
	points := TorturePoints(5, 10, 1000, 12_000)
	for _, s := range []Scheme{SchemePPA, SchemeUndoLog, SchemeRedoTxn, SchemeHTPM} {
		rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000, Lockstep: true}
		other := RunConfig{App: "gcc", Scheme: s, InstsPerThread: 1000}
		for _, p := range points {
			held, _, _, err := rc.resolve()
			if err != nil {
				t.Fatal(err)
			}
			hit, err := RunTorturePoint(rc, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(other); err != nil { // evicts the held trace
				t.Fatal(err)
			}
			miss, err := RunTorturePoint(rc, p)
			if err != nil {
				t.Fatal(err)
			}
			if regenerated, _, _, _ := rc.resolve(); regenerated == held {
				t.Fatal("the interleaved run did not evict the held trace")
			}
			a, _ := json.Marshal(hit)
			b, _ := json.Marshal(miss)
			if string(a) != string(b) {
				t.Fatalf("%s %v: memo hit and miss disagree:\nhit:  %s\nmiss: %s", s, p, a, b)
			}
		}
	}
}
