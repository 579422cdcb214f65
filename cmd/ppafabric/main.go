// Command ppafabric runs the distributed sweep fabric: a coordinator that
// shards a torture sweep into content-addressed work units and serves them
// over HTTP, and workers that lease units, simulate them, and post the
// verdicts back. The merged report is byte-identical to the single-process
// `ppatorture` run of the same spec, and a coordinator restarted over its
// manifest resumes without redoing finished units.
//
// Usage:
//
//	ppafabric coordinate -listen :7077 -points 2000 -oracle \
//	    -manifest sweep.manifest -out report.json
//	ppafabric work -coordinator http://host:7077 -workers 4
//
// The coordinator serves fleet-wide observability on its listen address
// (/metrics, /snapshot.json, /v1/status, /healthz, and the merged fleet
// Chrome trace at /trace) while the sweep runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"ppa"
	"ppa/internal/fabric"
	"ppa/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppafabric: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "coordinate":
		if err := coordinate(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
	case "work":
		if err := work(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
	case "-h", "-help", "--help", "help":
		usage()
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ppafabric coordinate [flags]   serve a sweep's units to workers, merge the report
  ppafabric work [flags]         lease and simulate units from a coordinator

run "ppafabric <subcommand> -h" for the flag list`)
}

// coordinate runs the coordinator side: decompose, serve, wait, merge,
// report — with ppatorture's reporting conventions (same JSON encoding,
// exit 1 on violations with a shrunk reproducer).
func coordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	listen := fs.String("listen", ":7077", "address to serve the job protocol and fleet /metrics on")
	appFlag := fs.String("app", "mcf", "application name from the workload suite")
	schemeFlag := fs.String("scheme", "ppa", "persistence scheme (the contract targets ppa)")
	insts := fs.Int("insts", 2_000, "dynamic instructions per thread")
	points := fs.Int("points", 2_000, "number of torture points to sweep")
	seed := fs.Int64("seed", 1, "sweep generator seed")
	minCycle := fs.Uint64("mincycle", 200, "earliest failure cycle")
	maxCycle := fs.Uint64("maxcycle", 8_000, "failure cycles are uniform in [mincycle, maxcycle)")
	kindFlag := fs.String("kind", "", "restrict the sweep to one fault kind (torn-checkpoint|nested-outage|bit-flip|torn-word|drop-tail)")
	oracleFlag := fs.Bool("oracle", false, "run every point under the differential lockstep oracle")
	unit := fs.Int("unit", fabric.DefaultUnitSize, "torture points per work unit")
	lease := fs.Duration("lease", fabric.DefaultLease, "work-unit lease duration (heartbeats extend it)")
	manifest := fs.String("manifest", "", "resumable completed-unit ledger path (restart the coordinator over it to resume)")
	outPath := fs.String("out", "", "write the merged sweep report as JSON (byte-identical to ppatorture -out)")
	metricsPath := fs.String("metrics", "", "write the merged fleet metrics snapshot as JSON Lines")
	reproPath := fs.String("repro", "", "path for the shrunk reproducer JSON written on violation (default ppafabric-repro.json)")
	tracePath := fs.String("trace", "", "write the merged fleet Chrome trace (one process lane per worker) after the sweep; the same timeline is live at /trace")
	forensicsDir := fs.String("forensics", "", "persist forensic bundles shipped by workers into this directory (one .ppab file per captured violation)")
	fs.Parse(args)

	if *unit < 1 {
		return &fabric.FlagError{Flag: "unit", Value: fmt.Sprint(*unit), Reason: "must be >= 1"}
	}
	spec := fabric.Spec{
		App:      *appFlag,
		Scheme:   *schemeFlag,
		Insts:    *insts,
		Points:   *points,
		Seed:     *seed,
		MinCycle: *minCycle,
		MaxCycle: *maxCycle,
		Kind:     *kindFlag,
		Oracle:   *oracleFlag,
		UnitSize: *unit,
	}
	hub := ppa.NewObsHub(0)
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:         spec,
		ManifestPath: *manifest,
		Lease:        *lease,
		Hub:          hub,
		Log:          log.Default(),
		ForensicsDir: *forensicsDir,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	srv, err := coord.Serve(*listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("coordinating sweep %.12s…: %d units on http://%s (endpoints /v1/spec /v1/status /metrics)",
		coord.SpecHash(), coord.Units(), srv.Addr())

	rep, err := coord.Wait(context.Background())
	if err != nil {
		return err
	}
	// Linger before tearing the server down: workers that were idle-polling
	// when the last unit landed learn the sweep is done from their next
	// lease attempt (the default retry is 500ms) instead of hitting a dead
	// socket and reporting the coordinator unreachable.
	time.Sleep(3 * fabric.DefaultRetry)
	log.Printf("%d points: %d injected, %d detected, %d recovered, %d completed-before-failure, %d violations",
		rep.Points, rep.Injected, rep.Detected, rep.Recovered,
		rep.CompletedBeforeFailure, len(rep.Violations))
	kinds := make([]string, 0, len(rep.ByKind))
	for kind := range rep.ByKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		log.Printf("  %-16s %d points", kind, rep.ByKind[kind])
	}

	if *outPath != "" {
		if err := writeJSON(*outPath, rep); err != nil {
			return err
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := coord.WriteFleetTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if d := coord.TraceDropped(); d > 0 {
			log.Printf("fleet trace written to %s (%d events dropped by worker rings/caps)", *tracePath, d)
		} else {
			log.Printf("fleet trace written to %s", *tracePath)
		}
	}
	if files := coord.BundleFiles(); len(files) > 0 {
		log.Printf("%d forensic bundle(s) in %s (inspect with: ppareport forensics <file>)", len(files), *forensicsDir)
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			return err
		}
		if err := ppa.WriteMetricsJSONL(f, hub); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}

	if len(rep.Violations) > 0 {
		first := rep.Violations[0]
		log.Printf("shrinking first violation: %v", first.Point)
		rc := spec.RunConfig(hub)
		min, err := ppa.ShrinkTorturePoint(rc, first.Point, *minCycle)
		if err != nil {
			log.Printf("shrink failed: %v", err)
			min = first.Point
		}
		log.Printf("minimal reproducer: %v (replay with ppatorture -replay <file>)", min)
		path := *reproPath
		if path == "" {
			path = "ppafabric-repro.json"
		}
		if err := writeJSON(path, min); err != nil {
			return err
		}
		log.Printf("reproducer written to %s", path)
		os.Exit(1)
	}
	return nil
}

// work runs the worker side: one lease loop with -workers-way simulation
// parallelism inside each unit.
func work(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (http://host:port); required")
	name := fs.String("name", defaultWorkerName(), "worker name for coordinator logs and the manifest")
	workers := fs.Int("workers", 1, "simulation parallelism within a leased unit (>= 1)")
	dialTimeout := fs.Duration("dial-timeout", 10*time.Second, "budget for first contact before failing with a typed unreachable error")
	poll := fs.Duration("poll", 0, "fallback delay between lease attempts when no unit is available (0 = coordinator's suggestion)")
	serveAddr := fs.String("serve", "", "serve this worker's own observability over HTTP (endpoints /metrics, /snapshot.json, /trace, /healthz)")
	pprofFlag := fs.Bool("pprof", false, "with -serve: also mount net/http/pprof under /debug/pprof/ to profile this worker live")
	fs.Parse(args)

	if *coordinator == "" {
		return &fabric.FlagError{Flag: "coordinator", Value: `""`, Reason: "coordinator URL is required"}
	}
	if err := fabric.ValidateWorkers("workers", *workers, 1); err != nil {
		return err
	}

	hub := ppa.NewObsHub(0)
	if *serveAddr != "" {
		obs.RegisterRuntimeMetrics(hub.Registry(), *name)
		srv, err := obs.ServeWith(*serveAddr, hub, obs.ServeOptions{Pprof: *pprofFlag})
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("serving worker observability on http://%s", srv.Addr())
	}
	n, err := fabric.RunWorker(context.Background(), fabric.WorkerConfig{
		Coordinator: *coordinator,
		Name:        *name,
		Parallel:    *workers,
		Hub:         hub,
		DialTimeout: *dialTimeout,
		Poll:        *poll,
		Log:         log.Default(),
	})
	if err != nil {
		var unreach *fabric.UnreachableError
		if errors.As(err, &unreach) {
			return fmt.Errorf("%w (is the coordinator running? start one with: ppafabric coordinate -listen <addr>)", err)
		}
		return err
	}
	log.Printf("done: %d units completed", n)
	return nil
}

func defaultWorkerName() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		return fmt.Sprintf("worker-%d", os.Getpid())
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// writeJSON matches ppatorture's report encoding byte for byte — that is
// the contract the CI fabric job asserts with cmp(1).
func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
