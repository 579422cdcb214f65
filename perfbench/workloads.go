package main

import (
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	"ppa"
	"ppa/internal/litmus"
	apps "ppa/internal/workload"
)

// A unit is one timed call into the simulator, made from outside: one
// detailed sim run, one torture point or one litmus test.
type unit struct {
	name string
	// call makes the public calls, opening child spans under parent, and
	// keeps whatever the pass check needs. A returned error fails the unit.
	call func(tr *tracer, unit, parent int) error
}

// A pass is a fixed, seed-derived set of units. A run repeats passes with
// fresh inputs until its time is up; the model-identity counts and digest
// cover pass 0 only, so they do not depend on how fast the host is.
type pass struct {
	units []unit
	// check runs once every unit has been called. It makes the pass-level
	// correctness checks, folds the pass's simulated outcome into h and
	// returns the simulated counts.
	check func(h hash.Hash64) (map[string]float64, error)
}

// A workload turns a run seed into passes.
type workload struct {
	name string
	size string
	// corpus is how many distinct passes a run cycles through; pass k of a
	// run is corpus pass k mod corpus. It is sized so that a run of 40 s
	// on a 2-vCPU host makes about three rounds or more: more passes make a
	// seed's corpus a better sample of its kind of input, more rounds
	// filter a shared host's bursts better.
	corpus int
	// pass builds corpus pass k's inputs from the seed; the program
	// receives only these.
	pass func(seed uint64, k int) (*pass, error)
	// warmup is the small unit set-up ends with: it runs the same public
	// calls as a pass unit, so first-call costs land in setup_s. Its inputs
	// come from warmupSeed, not the run seed, so set-up does the same work
	// on every seed.
	warmup func() unit
}

// derive gives the independent sub-seed for (seed, pass, stream).
func derive(seed uint64, k int, stream uint64) uint64 {
	z := seed ^ (uint64(k)+1)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

const warmupSeed = 0x5E7

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

func workloads(scale float64) map[string]*workload {
	return map[string]*workload{
		"detailed-sim":  detailedSim(scale),
		"crash-sweep":   crashSweep(scale),
		"litmus-corpus": litmusCorpus(scale),
	}
}

type simRun struct {
	app    string
	scheme ppa.Scheme
	insts  int // per thread
}

// detailedSim is full detailed runs as ppasim makes them: no oracle, no
// crash, caches starting cold.
func detailedSim(scale float64) *workload {
	runs := []simRun{
		{"gcc", ppa.SchemePPA, scaled(800_000, scale)},
		{"mcf", ppa.SchemePPA, scaled(600_000, scale)},
		{"water-ns", ppa.SchemePPA, scaled(100_000, scale)}, // 8 threads
		{"mcf", ppa.SchemeUndoLog, scaled(600_000, scale)},
	}
	size := "pass ="
	for _, r := range runs {
		size += fmt.Sprintf(" %s/%s@%d", r.app, r.scheme, r.insts)
	}
	return &workload{
		name:   "detailed-sim",
		size:   size + " insts/thread",
		corpus: 3,
		pass: func(seed uint64, k int) (*pass, error) {
			results := make([]*ppa.Result, len(runs))
			p := &pass{}
			for i, r := range runs {
				rc, err := simConfig(r, derive(seed, k, uint64(i)))
				if err != nil {
					return nil, err
				}
				i := i
				p.units = append(p.units, unit{
					name: r.app + "/" + string(r.scheme),
					call: func(tr *tracer, u, parent int) (err error) {
						results[i], err = simulate(tr, u, parent, rc)
						return err
					},
				})
			}
			p.check = func(h hash.Hash64) (map[string]float64, error) {
				defer clear(results) // a run repeats the pass; keep only one pass's outputs alive
				return simCounts(h, results), nil
			}
			return p, nil
		},
		warmup: func() unit {
			r := runs[0]
			r.insts = scaled(r.insts, 0.05)
			rc, err := simConfig(r, warmupSeed)
			return unit{name: "warmup", call: func(tr *tracer, u, parent int) error {
				if err != nil {
					return err
				}
				_, err := simulate(tr, u, parent, rc)
				return err
			}}
		},
	}
}

func simConfig(r simRun, traceSeed uint64) (ppa.RunConfig, error) {
	prof, err := apps.ByName(r.app)
	if err != nil {
		return ppa.RunConfig{}, err
	}
	prof.Seed = int64(traceSeed >> 1)
	return ppa.RunConfig{Profile: &prof, Scheme: r.scheme, InstsPerThread: r.insts}, nil
}

// simulate is one ppasim run: build, run to completion, collect. It fails
// unless every instruction of every thread committed.
func simulate(tr *tracer, u, parent int, rc ppa.RunConfig) (*ppa.Result, error) {
	sp := tr.start("ppa.NewSystem", u, parent)
	sys, err := ppa.NewSystem(rc)
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("System.Run", u, parent)
	err = sys.Run(uint64(rc.InstsPerThread)*4000 + 1_000_000)
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("System.Collect", u, parent)
	res := sys.Collect()
	tr.stop(sp)
	tr.cycles += res.Cycles
	tr.insts += res.Insts
	if want := uint64(rc.InstsPerThread) * uint64(res.Cores); res.Insts != want {
		return nil, fmt.Errorf("committed %d of %d instructions", res.Insts, want)
	}
	return res, nil
}

func simCounts(h hash.Hash64, results []*ppa.Result) map[string]float64 {
	c := map[string]float64{}
	var missRate float64
	for _, r := range results {
		var regions, stalls uint64
		for _, st := range r.PerCore {
			regions += st.Regions
			stalls += st.RegionEndStalls
		}
		c["multicore.sim_cycles"] += float64(r.Cycles)
		c["pipeline.insts"] += float64(r.Insts)
		c["pipeline.regions"] += float64(regions)
		c["pipeline.region_end_stall_cycles"] += float64(stalls)
		c["nvm.line_writes"] += float64(r.NVMLineWrites)
		c["nvm.wpq_coalesced"] += float64(r.NVMWPQCoalesced)
		missRate += r.L2MissRate
		fmt.Fprintf(h, "sim %s %s cores=%d cycles=%d insts=%d regions=%d stalls=%d l2=%.17g nvmw=%d coal=%d media=%d wb=%d/%d\n",
			r.Workload, r.Scheme.Kind, r.Cores, r.Cycles, r.Insts, regions, stalls, r.L2MissRate,
			r.NVMLineWrites, r.NVMWPQCoalesced, r.NVMMediaWrites, r.WBEnqueuedLines, r.WBCoalescedStores)
	}
	c["cache.l2_miss_rate"] = missRate / float64(len(results))
	return c
}

// crashSweep is an oracle-checked torture sweep, as ppatorture -oracle
// makes it, under one checkpoint-replay scheme and three log schemes.
func crashSweep(scale float64) *workload {
	schemes := []ppa.Scheme{ppa.SchemePPA, ppa.SchemeUndoLog, ppa.SchemeRedoTxn, ppa.SchemeHTPM}
	points := scaled(25, scale)
	const insts = 2000
	return &workload{
		name:   "crash-sweep",
		corpus: 12,
		size:   fmt.Sprintf("pass = %d points x %v, mcf@%d insts/thread, fail cycles in [200, 8000), lockstep oracle on", points, schemes, insts),
		pass: func(seed uint64, k int) (*pass, error) {
			pts := stratify(ppa.TorturePoints(int64(derive(seed, k, 0)>>1), points, 200, 8000), 200, 8000, derive(seed, k, 2))
			rc, err := simConfig(simRun{"mcf", "", insts}, derive(seed, k, 1))
			if err != nil {
				return nil, err
			}
			rc.Lockstep = true
			outs := make([][]*ppa.TortureOutcome, len(schemes))
			p := &pass{}
			for s, sch := range schemes {
				rc := rc
				rc.Scheme = sch
				outs[s] = make([]*ppa.TortureOutcome, len(pts))
				for i, pt := range pts {
					s, i, pt := s, i, pt
					p.units = append(p.units, unit{
						name: string(sch) + " " + pt.String(),
						call: func(tr *tracer, u, parent int) (err error) {
							outs[s][i], err = torturePoint(tr, u, parent, rc, pt)
							return err
						},
					})
				}
			}
			p.check = func(h hash.Hash64) (map[string]float64, error) {
				defer func() {
					for _, o := range outs {
						clear(o)
					}
				}()
				c := map[string]float64{}
				var errs []error
				for s, sch := range schemes {
					rep, err := ppa.AggregateTortureOutcomes(nil, pts, outs[s], nil)
					if err != nil {
						errs = append(errs, err)
						continue
					}
					if len(rep.Violations) > 0 || rep.Detected+rep.Recovered+rep.CompletedBeforeFailure != rep.Points {
						errs = append(errs, fmt.Errorf("%s: %d violations, detected %d + recovered %d + completed %d != %d points",
							sch, len(rep.Violations), rep.Detected, rep.Recovered, rep.CompletedBeforeFailure, rep.Points))
					}
					c["fault.injected"] += float64(rep.Injected)
					c["fault.detected"] += float64(rep.Detected)
					c["recovery.recovered"] += float64(rep.Recovered)
					for _, o := range outs[s] {
						fmt.Fprintf(h, "point %s %s completed=%t injected=%t detected=%t as=%q recovered=%t attempts=%d lost=%d violation=%q\n",
							sch, o.Point, o.CompletedBeforeFailure, o.Injected, o.Detected, o.DetectedAs,
							o.Recovered, o.RecoveryAttempts, o.Inconsistencies, o.Violation)
					}
				}
				return c, errors.Join(errs...)
			}
			return p, nil
		},
		warmup: func() unit {
			pt := ppa.TorturePoints(warmupSeed, 1, 200, 8000)[0]
			rc, err := simConfig(simRun{"mcf", "", insts}, warmupSeed)
			rc.Lockstep = true
			return unit{name: "warmup", call: func(tr *tracer, u, parent int) error {
				if err != nil {
					return err
				}
				for _, sch := range schemes {
					rc := rc
					rc.Scheme = sch
					if _, err := torturePoint(tr, u, parent, rc, pt); err != nil {
						return err
					}
				}
				return nil
			}}
		},
	}
}

// stratify moves each point's failure cycle into its own slice of [lo,
// hi): the slices are equal, the seed deals them out, and a point keeps
// its relative place inside its slice. A pass then fails early and late
// alike on every seed, so the seed changes the points but not how much
// simulation they take on average.
func stratify(pts []ppa.TorturePoint, lo, hi, seed uint64) []ppa.TorturePoint {
	n := uint64(len(pts))
	slices := rand.New(rand.NewSource(int64(seed >> 1))).Perm(len(pts))
	for i := range pts {
		pts[i].Cycle = lo + (uint64(slices[i])*(hi-lo)+pts[i].Cycle-lo)/n
	}
	return pts
}

// torturePoint is one RunTorturePoint call. A point fails on a harness
// error, a violation (lockstep divergences included), or a verdict that is
// not exactly one of detected, recovered and completed-before-failure.
func torturePoint(tr *tracer, u, parent int, rc ppa.RunConfig, pt ppa.TorturePoint) (*ppa.TortureOutcome, error) {
	sp := tr.start("ppa.RunTorturePoint", u, parent)
	out, err := ppa.RunTorturePoint(rc, pt)
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	if out.Violation != "" {
		return out, fmt.Errorf("violation: %s", out.Violation)
	}
	verdicts := 0
	for _, v := range []bool{out.Detected, out.Recovered, out.CompletedBeforeFailure} {
		if v {
			verdicts++
		}
	}
	if verdicts != 1 {
		return out, fmt.Errorf("%d verdicts (detected=%t recovered=%t completed=%t)",
			verdicts, out.Detected, out.Recovered, out.CompletedBeforeFailure)
	}
	return out, nil
}

// litmusCorpus is a generated 2–4-core litmus corpus, each test run over
// perturbed schedules under ppa and under redotxn.
func litmusCorpus(scale float64) *workload {
	schemes := []ppa.Scheme{ppa.SchemePPA, ppa.SchemeRedoTxn}
	perCores := scaled(3, scale) // tests per core count, 2 to 4
	schedules := scaled(50, scale)
	tests := 3 * perCores
	return &workload{
		name:   "litmus-corpus",
		corpus: 10,
		size:   fmt.Sprintf("pass = %d generated tests x %v, %d schedules/test", tests, schemes, schedules),
		pass: func(seed uint64, k int) (*pass, error) {
			var corpus []*litmus.Test
			for cores := 2; cores <= 4; cores++ {
				corpus = append(corpus, litmus.Generate(litmus.GenOptions{Seed: derive(seed, k, uint64(cores)<<8), Count: perCores, Cores: cores})...)
			}
			opt := litmus.RunOptions{Schedules: schedules, Seed: derive(seed, k, 1)}
			results := make([][]*litmus.TestResult, len(schemes))
			p := &pass{}
			for s, sch := range schemes {
				cfg, err := ppa.SchemeConfig(sch)
				if err != nil {
					return nil, err
				}
				opt := opt
				opt.Scheme = &cfg
				results[s] = make([]*litmus.TestResult, len(corpus))
				for i, t := range corpus {
					s, i, t := s, i, t
					p.units = append(p.units, unit{
						name: fmt.Sprintf("%s %dc-%s", sch, len(t.Cores), t.Name),
						call: func(tr *tracer, u, parent int) (err error) {
							results[s][i], err = litmusTest(tr, u, parent, t, opt)
							return err
						},
					})
				}
			}
			p.check = func(h hash.Hash64) (map[string]float64, error) {
				defer func() {
					for _, r := range results {
						clear(r)
					}
				}()
				var sched, forbidden, allowed, observed int
				for s, sch := range schemes {
					for _, r := range results[s] {
						sched += r.Schedules
						forbidden += len(r.Forbidden)
						allowed += len(r.Allowed)
						observed += len(r.Allowed) - len(r.Unreached)
						keys := make([]string, 0, len(r.Observed))
						for key := range r.Observed {
							keys = append(keys, key)
						}
						sort.Strings(keys)
						fmt.Fprintf(h, "litmus %s %s crashes=%d accepts=%d", sch, r.Name, r.Crashes, r.Accepts)
						for _, key := range keys {
							fmt.Fprintf(h, " %s:%d", key, r.Observed[key])
						}
						fmt.Fprintln(h)
					}
				}
				c := map[string]float64{"litmus.schedules": float64(sched)}
				if allowed > 0 {
					c["litmus.coverage"] = float64(observed) / float64(allowed)
				}
				if forbidden != 0 {
					return c, fmt.Errorf("%d forbidden litmus outcomes", forbidden)
				}
				return c, nil
			}
			return p, nil
		},
		warmup: func() unit {
			t := litmus.Generate(litmus.GenOptions{Seed: warmupSeed, Count: 1})[0]
			opt := litmus.RunOptions{Schedules: scaled(schedules, 0.2), Seed: warmupSeed}
			return unit{name: "warmup", call: func(tr *tracer, u, parent int) error {
				_, err := litmusTest(tr, u, parent, t, opt)
				return err
			}}
		},
	}
}

// litmusTest is one RunTest call; any forbidden outcome fails it.
func litmusTest(tr *tracer, u, parent int, t *litmus.Test, opt litmus.RunOptions) (*litmus.TestResult, error) {
	sp := tr.start("litmus.RunTest", u, parent)
	res, err := litmus.RunTest(t, opt)
	tr.stop(sp)
	if err != nil {
		return nil, err
	}
	tr.schedules += uint64(res.Schedules)
	if len(res.Forbidden) > 0 {
		return res, fmt.Errorf("forbidden outcome: %s", res.Forbidden[0])
	}
	return res, nil
}
