// Command perfbench is the repository's benchmark: it runs one workload of
// the simulator for a fixed time from a workload seed, checks every output,
// and prints its metrics, ending with one JSON result line.
//
//	perfbench --workload detailed-sim --seed 1 --seconds 36 --trace 0
//
// Workloads are detailed-sim, crash-sweep and litmus-corpus (see
// README.md). Load is a closed loop with one client: one unit in flight at
// a time, in this one process. A run cycles through a seed-derived corpus
// of units in rounds and times each unit against a calibration kernel, so
// that its metrics follow the simulator rather than a shared host's
// moment-to-moment speed. --trace 0 reports the end-to-end metrics;
// --trace 1 reports the per-layer split from a traced run (spans around
// each public call plus a CPU profile), followed by an untraced replay of
// the same units that gives the tracing overhead and the counted metrics.
// Trace and profile files go to .bench_build/perfbench/.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median.
const setupRepeats = 21

// outDir holds trace and profile files, relative to the checkout root.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	name := flag.String("workload", "", "detailed-sim, crash-sweep or litmus-corpus")
	seed := flag.Uint64("seed", 1, "workload seed: picks trace seeds, torture points and the litmus corpus")
	seconds := flag.Int("seconds", 36, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 reports the per-layer split from a traced run")
	flag.Parse()
	// One client with one unit in flight gets one P, so the garbage
	// collector shares the client's CPU. With a second P on a shared
	// 2-vCPU host the same units ran up to 2.5x slower (litmus-corpus) and
	// far less steadily: the collector's cross-CPU wake-ups cost more than
	// its parallelism saved. One P measures the simulator's own cost.
	runtime.GOMAXPROCS(1)
	w := workloads(1)[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload detailed-sim|crash-sweep|litmus-corpus --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range []any{res.provenance, map[string]any{"report": res.report}, res.result} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	provenance map[string]any
	report     map[string]any
	result     result
}

// loop is what one timed loop over passes saw.
type loop struct {
	tr *tracer
	// times holds each distinct unit's times, one per round it ran in:
	// unit i of corpus pass j is at index first[j]+i.
	times [][]time.Duration
	first []int
	// norm is each distinct unit's normalized times in ms, one per round,
	// and cals the calibration kernel's times. Both stay empty without a
	// calibrator.
	norm       [][]float64
	cals       []float64
	passes     int
	attempted  int
	failed     int
	errs       []string
	wall       time.Duration
	allocBytes uint64
	// unitRSS is the peak resident set size while each unit ran, in MB.
	unitRSS []float64
	// counts and digest are pass 0's simulated counts; digest is 0 when a
	// unit of pass 0 failed. digests holds each corpus pass's first digest,
	// which every later round of that pass must repeat.
	counts  map[string]float64
	digest  uint64
	digests []uint64
}

func (l *loop) fail(what string, err error) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, what+": "+err.Error())
	}
}

// runLoop runs passes 0, 1, ... one unit at a time for as long as more
// reports true. Pass k runs corpus pass k mod w.corpus, so the run goes in
// rounds over the same seed-derived inputs and every distinct unit is
// timed once per round, spread over the whole run. It asks more after
// each whole pass, giving it the time since the loop began, and always
// runs pass 0. The time spent inside more is left out of the loop's wall
// time.
//
// With a calibrator, the kernel runs before the first pass, then after
// the first pass that ends calEvery or more after its previous run, and
// after the last pass; its runs too are left out of the wall time. Each
// unit's time is also divided by the host factor, the mean of the two
// kernel runs around its pass over refKernel.
func runLoop(w *workload, seed uint64, tr *tracer, cal *calibrator, more func(passes int, elapsed time.Duration) bool) (*loop, error) {
	l := &loop{tr: tr}
	corpus := make([]*pass, w.corpus)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peakRSSMB()
	if cal != nil {
		l.cals = append(l.cals, cal.measure())
	}
	start := time.Now()
	var paused time.Duration
	lastCal := start
	// pending holds the (distinct unit, round) times not yet normalized.
	var pending [][2]int
	calibrate := func() {
		t := time.Now()
		c := cal.measure()
		paused += time.Since(t)
		lastCal = time.Now()
		f := (l.cals[len(l.cals)-1] + c) / 2 / refKernel
		l.cals = append(l.cals, c)
		for _, p := range pending {
			l.norm[p[0]] = append(l.norm[p[0]], float64(l.times[p[0]][p[1]].Nanoseconds())/1e6/f)
		}
		pending = pending[:0]
	}
	for k := 0; ; k++ {
		if k > 0 {
			t := time.Now()
			cont := more(k, t.Sub(start))
			paused += time.Since(t)
			if !cont {
				break
			}
		}
		j := k % w.corpus
		if corpus[j] == nil {
			sp := tr.start("inputs", 0, 0)
			p, err := w.pass(seed, j)
			tr.stop(sp)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d inputs: %w", w.name, j, err)
			}
			corpus[j] = p
			l.first = append(l.first, len(l.times))
			l.times = append(l.times, make([][]time.Duration, len(p.units))...)
			l.norm = append(l.norm, make([][]float64, len(p.units))...)
			l.digests = append(l.digests, 0)
		}
		p := corpus[j]
		ok := true
		for i, u := range p.units {
			id := l.attempted + 1
			us := tr.start("unit", id, 0)
			err := u.call(tr, id, us.ID)
			d := tr.stop(us)
			l.unitRSS = append(l.unitRSS, peakRSSMB())
			l.times[l.first[j]+i] = append(l.times[l.first[j]+i], d)
			l.attempted++
			if err != nil {
				ok = false
				l.fail(u.name, err)
			}
		}
		l.passes++
		if cal != nil {
			for i := range p.units {
				u := l.first[j] + i
				pending = append(pending, [2]int{u, len(l.times[u]) - 1})
			}
			if time.Since(lastCal) >= calEvery {
				calibrate()
			}
		}
		if !ok {
			continue
		}
		h := fnv.New64a()
		counts, err := p.check(h)
		if err == nil && l.digests[j] != 0 && h.Sum64() != l.digests[j] {
			err = fmt.Errorf("digest %016x differs from the pass's first round, %016x", h.Sum64(), l.digests[j])
		}
		if err != nil {
			l.failed += len(p.units)
			l.errs = append(l.errs, fmt.Sprintf("pass %d (corpus pass %d): %v", k, j, err))
			continue
		}
		l.digests[j] = h.Sum64()
		if k == 0 {
			l.counts, l.digest = counts, h.Sum64()
		}
	}
	if len(pending) > 0 {
		calibrate()
	}
	l.wall = time.Since(start) - paused
	runtime.ReadMemStats(&m1)
	l.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return l, nil
}

// setup generates the inputs of the seed's whole corpus and runs the
// warm-up unit once, and returns the time that took.
func setup(w *workload, seed uint64, l *loop) (time.Duration, error) {
	start := time.Now()
	for k := 0; k < w.corpus; k++ {
		if _, err := w.pass(seed, k); err != nil {
			return 0, fmt.Errorf("%s inputs: %w", w.name, err)
		}
	}
	u := w.warmup()
	err := u.call(l.tr, 0, 0)
	d := time.Since(start)
	l.attempted++
	if err != nil {
		l.fail(u.name, err)
	}
	return d, nil
}

func run(w *workload, seed uint64, dur time.Duration, traced bool) (*output, error) {
	out := &output{provenance: provenance(w, seed, dur, traced)}
	pre := &loop{tr: newTracer(false)}
	if !traced {
		cal, err := newCalibrator()
		if err != nil {
			return nil, err
		}
		// The first set-up precedes every timed unit; the others are spread
		// evenly over the timed loop, so that their median sees the same
		// host conditions as the units do rather than one instant of them.
		// Each is normalized by a kernel run just before and just after it.
		var setups, rawSetups []float64
		setupOnce := func() error {
			c0 := cal.measure()
			d, err := setup(w, seed, pre)
			if err != nil {
				return err
			}
			f := (c0 + cal.measure()) / 2 / refKernel
			rawSetups = append(rawSetups, d.Seconds())
			setups = append(setups, d.Seconds()/f)
			return nil
		}
		if err := setupOnce(); err != nil {
			return nil, err
		}
		var serr error
		l, err := runLoop(w, seed, newTracer(false), cal, func(_ int, elapsed time.Duration) bool {
			if serr == nil && len(setups) < setupRepeats && elapsed >= time.Duration(len(setups))*dur/setupRepeats {
				serr = setupOnce()
			}
			return serr == nil && elapsed < dur
		})
		if err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		metrics, report := endToEnd(w, l)
		attempted, failed := pre.attempted+l.attempted, pre.failed+l.failed
		metrics["setup_s"] = metric{median(setups), "s"}
		report["setup_s"] = median(setups)
		report["raw_setup_s"] = median(rawSetups)
		report["setup_samples"] = len(setups)
		report["failed_frac"] = float64(failed) / float64(attempted)
		report["errors"] = append(pre.errs, l.errs...)
		out.report = report
		out.result = result{
			Correct:   failed == 0 && l.digest != 0,
			Attempted: attempted,
			Failed:    failed,
			Metrics:   metrics,
		}
		return out, nil
	}

	// Traced run: spans and a CPU profile over about half the time, then
	// the same passes again untraced.
	if _, err := setup(w, seed, pre); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tl, err := runLoop(w, seed, newTracer(true), nil, func(_ int, elapsed time.Duration) bool { return elapsed < dur/2 })
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	ul, err := runLoop(w, seed, newTracer(false), nil, func(k int, _ time.Duration) bool { return k < tl.passes })
	if err != nil {
		return nil, err
	}
	split, err := splitProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(base+".trace.json", tl.tr.spans, out.provenance); err != nil {
		return nil, err
	}

	attempted := pre.attempted + tl.attempted + ul.attempted
	failed := pre.failed + tl.failed + ul.failed
	metrics := map[string]metric{}
	var total float64
	for _, v := range split {
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("the cpu profile of %d traced passes holds no samples", tl.passes)
	}
	for name, v := range split {
		metrics[name] = metric{v / float64(tl.passes), "s"}
	}
	metrics["layers.named_frac"] = metric{1 - split[otherLayer]/total, "fraction"}
	metrics["trace.overhead_frac"] = metric{tl.wall.Seconds()/ul.wall.Seconds() - 1, "fraction"}
	for name, v := range counted(ul) {
		metrics[name] = metric{v, countUnits[name]}
	}
	self := map[string]float64{}
	for name, d := range selfTimes(tl.tr.spans) {
		self[name] = d.Seconds()
	}
	out.report = map[string]any{
		"workload":        w.name,
		"traced_passes":   tl.passes,
		"traced_wall_s":   tl.wall.Seconds(),
		"untraced_wall_s": ul.wall.Seconds(),
		"cpu_profile_s":   total,
		"span_self_s":     self,
		"spans":           len(tl.tr.spans),
		"digest_traced":   fmt.Sprintf("%016x", tl.digest),
		"digest":          fmt.Sprintf("%016x", ul.digest),
		"trace_file":      base + ".trace.json",
		"profile_file":    base + ".cpu.pprof",
		"layer_share":     shares(split, total),
		"predictions":     layerPredictions,
		"errors":          append(append(pre.errs, tl.errs...), ul.errs...),
	}
	out.result = result{
		Correct:   failed == 0 && ul.digest != 0 && tl.digest == ul.digest,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	return out, nil
}

// countUnits lists the counted per-layer metrics and their units; every
// workload reports all of them, 0 where its units make no such count.
var countUnits = map[string]string{
	"runtime.alloc_mb_per_unit":        "MB",
	"multicore.host_ns_per_cycle":      "ns",
	"multicore.sim_cycles":             "count",
	"pipeline.insts":                   "count",
	"pipeline.regions":                 "count",
	"pipeline.region_end_stall_cycles": "count",
	"cache.l2_miss_rate":               "fraction",
	"nvm.line_writes":                  "count",
	"nvm.wpq_coalesced":                "count",
	"fault.injected":                   "count",
	"fault.detected":                   "count",
	"recovery.recovered":               "count",
	"litmus.schedules":                 "count",
	"litmus.coverage":                  "fraction",
}

// counted gives a loop's counted metrics: host allocation and time per
// simulated cycle, and pass 0's simulated counts.
func counted(l *loop) map[string]float64 {
	c := map[string]float64{}
	for name := range countUnits {
		c[name] = l.counts[name]
	}
	c["runtime.alloc_mb_per_unit"] = float64(l.allocBytes) / 1e6 / float64(l.attempted)
	if l.tr.cycles > 0 {
		c["multicore.host_ns_per_cycle"] = float64(l.tr.total["System.Run"].Nanoseconds()) / float64(l.tr.cycles)
	}
	return c
}

// unitQuantile is the quantile of a distinct unit's times over the run's
// rounds that stands for that unit: low enough that a round run while a
// neighbour held the memory system does not count, high enough not to be
// the one luckiest round.
const unitQuantile = 0.25

// endToEnd gives the untraced loop's end-to-end metrics and its report.
// The time metrics come from per-unit times: each distinct unit's
// normalized times over the rounds, at unitQuantile. The report gives the
// same metrics from raw times beside them, and the wall-clock rates.
func endToEnd(w *workload, l *loop) (map[string]metric, map[string]any) {
	timeMetrics := func(times [][]float64) map[string]metric {
		per := make([]float64, len(times))
		var sum float64
		for i, ts := range times {
			v := append([]float64(nil), ts...)
			sort.Float64s(v)
			per[i] = quantile(v, unitQuantile)
			sum += per[i]
		}
		sort.Float64s(per)
		return map[string]metric{
			"units_per_s": {float64(len(per)) / sum * 1e3, "1/s"},
			"unit_ms_p50": {quantile(per, 0.5), "ms"},
			"unit_ms_p90": {quantile(per, 0.9), "ms"},
		}
	}
	raw := make([][]float64, len(l.times))
	var all []float64
	for i, ds := range l.times {
		for _, d := range ds {
			raw[i] = append(raw[i], float64(d.Nanoseconds())/1e6)
		}
		all = append(all, raw[i]...)
	}
	sort.Float64s(all)
	m := timeMetrics(l.norm)
	m["max_rss_mb"] = metric{mean(l.unitRSS) - calibratorMB, "MB"}
	r := map[string]any{
		"workload":          w.name,
		"distinct_units":    len(l.times),
		"rounds":            float64(l.passes) / float64(len(l.first)),
		"passes":            l.passes,
		"wall_s":            l.wall.Seconds(),
		"host_factor":       median(l.cals) / refKernel,
		"raw":               timeMetrics(raw),
		"wall_units_per_s":  float64(len(all)) / l.wall.Seconds(),
		"unit_ms_quantiles": ladder(all),
		"digest":            fmt.Sprintf("%016x", l.digest),
		"counts":            counted(l),
	}
	for name, v := range m {
		r[name] = v.Value
	}
	names := map[string][3]string{
		"crash-sweep":   {"points_per_s", "point_ms_p50", "point_ms_p90"},
		"litmus-corpus": {"tests_per_s", "test_ms_p50", "test_ms_p90"},
		"detailed-sim":  {"runs_per_s", "run_ms_p50", "run_ms_p90"},
	}[w.name]
	r[names[0]], r[names[1]], r[names[2]] = m["units_per_s"].Value, m["unit_ms_p50"].Value, m["unit_ms_p90"].Value
	switch w.name {
	case "detailed-sim":
		r["wall_sim_kips"] = float64(l.tr.insts) / l.wall.Seconds() / 1e3
	case "litmus-corpus":
		r["wall_schedules_per_s"] = float64(l.tr.schedules) / l.wall.Seconds()
	}
	return m, r
}

// ladder gives a fixed set of quantiles of sorted, for reading the shape of
// the unit-time distribution beside the two reported points.
func ladder(sorted []float64) map[string]float64 {
	q := map[string]float64{}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99} {
		q[fmt.Sprintf("p%g", p)] = quantile(sorted, p/100)
	}
	return q
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median[T time.Duration | float64](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func shares(split map[string]float64, total float64) map[string]float64 {
	s := map[string]float64{}
	for name, v := range split {
		s[name] = v / total
	}
	return s
}

// peakRSSMB returns the peak resident set size since the previous call,
// in MB, and resets the kernel's high-water mark so that the next call
// sees only what follows. The mean of per-unit peaks is steadier than
// the process's lifetime peak, which one badly timed GC cycle can set,
// and than a median, which falls between two kinds of unit when a pass
// mixes kinds of different size, as detailed-sim's does.
// Where the mark cannot be reset, each call returns the lifetime peak.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	peak := math.NaN()
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				peak = kb / 1024
			}
		}
	}
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // see proc(5)
	return peak
}

// provenance records what produced an output: the commit, the toolchain,
// the host's parallelism, the seed and the workload's size.
func provenance(w *workload, seed uint64, dur time.Duration, traced bool) map[string]any {
	p := map[string]any{
		"vcs.revision": "unknown",
		"vcs.modified": "unknown",
		"go":           runtime.Version(),
		"GOMAXPROCS":   runtime.GOMAXPROCS(0),
		"NumCPU":       runtime.NumCPU(),
		"seed":         seed,
		"workload":     w.name,
		"size":         fmt.Sprintf("corpus = %d passes; %s", w.corpus, w.size),
		"seconds":      dur.Seconds(),
		"trace":        traced,
		"caches":       "cold at the start of every simulated machine",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				p[s.Key] = s.Value
			}
		}
	}
	return map[string]any{"provenance": p}
}
