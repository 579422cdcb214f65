package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed public call (or a whole unit), on the benchmark's own
// side of the call. Spans of one unit share its id.
type span struct {
	Name   string
	Unit   int
	ID     int
	Parent int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer times the public calls a unit makes. It always sums durations per
// call name, which costs two clock reads per call; with keep set it also
// holds every span in memory for writing out at the end of the run.
type tracer struct {
	keep  bool
	epoch time.Time
	next  int
	spans []span
	total map[string]time.Duration
	// Simulated work done by the calls timed so far: cycles and committed
	// instructions of System.Run calls, and litmus schedules.
	cycles, insts, schedules uint64
}

func newTracer(keep bool) *tracer {
	return &tracer{keep: keep, epoch: time.Now(), total: map[string]time.Duration{}}
}

func (t *tracer) start(name string, unit, parent int) span {
	t.next++
	return span{Name: name, Unit: unit, ID: t.next, Parent: parent, Start: time.Since(t.epoch)}
}

func (t *tracer) stop(s span) time.Duration {
	s.End = time.Since(t.epoch)
	t.total[s.Name] += s.End - s.Start
	if t.keep {
		t.spans = append(t.spans, s)
	}
	return s.End - s.Start
}

// selfTimes gives each span name's self time: its spans' durations minus
// the part their child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
	}
	return self
}

// writeChromeTrace writes spans as a Chrome trace_event document, one
// complete ("X") event per span, with the provenance in its metadata.
func writeChromeTrace(path string, spans []span, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","metadata":`)
	if err := json.NewEncoder(w).Encode(meta); err != nil {
		return err
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"unit": s.Unit, "id": s.ID, "parent": s.Parent},
		}); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
