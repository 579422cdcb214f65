package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A layer is a set of entry points into the simulator. A CPU sample
// belongs to the layer of the innermost frame on its stack that is one of
// those entry points, so "Core.Step minus oracle frames" falls out of the
// oracle's frames sitting deeper than Core.Step's.
type layer struct {
	name    string
	matches func(fn string) bool
	// moves is the end-to-end metric a change to this layer should move,
	// and flat where it should move little or not at all.
	moves, flat string
}

// frameIs matches a function and the closures defined inside it.
func frameIs(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == n || strings.HasPrefix(fn, n+".func") {
				return true
			}
		}
		return false
	}
}

func prefixed(prefixes ...string) func(string) bool {
	return func(fn string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
}

const otherLayer = "other_s"

var layers = []layer{
	{"workload.gen_s", frameIs("ppa/internal/workload.New"),
		"units_per_s (sim_kips), max_rss_mb on detailed-sim", "litmus-corpus"},
	{"multicore.build_s", prefixed("ppa/internal/multicore.NewSystem", "ppa/internal/multicore.newSystem"),
		"unit_ms_p50, units_per_s on litmus-corpus; unit_ms_p50 on crash-sweep", "detailed-sim"},
	{"pipeline.step_s", frameIs("ppa/internal/pipeline.(*Core).Step"),
		"units_per_s (sim_kips) on detailed-sim", "litmus-corpus"},
	{"cache.tick_s", frameIs("ppa/internal/cache.(*Hierarchy).Tick"),
		"units_per_s (sim_kips) on detailed-sim", "litmus-corpus"},
	{"nvm.tick_s", frameIs("ppa/internal/nvm.(*Device).Tick"),
		"units_per_s (sim_kips) on detailed-sim, water-ns runs", "litmus-corpus"},
	{"persist.backend_s", frameIs("ppa/internal/persist.(*LogPath).Tick", "ppa/internal/persist.(*RedoPath).Tick"),
		"mcf/undolog runs on detailed-sim; unit_ms_p50 on crash-sweep", "gcc/ppa runs on detailed-sim"},
	{"oracle.check_s", prefixed("ppa/internal/oracle."),
		"units_per_s, unit_ms_p50 on crash-sweep", "detailed-sim (0)"},
	{"checkpoint.crash_s", func(fn string) bool {
		return strings.HasPrefix(fn, "ppa/internal/multicore.(*System).Crash") ||
			frameIs("ppa/internal/checkpoint.Capture", "ppa/internal/cache.(*Hierarchy).PowerFail")(fn)
	}, "unit_ms_p50 on crash-sweep; litmus-corpus crash legs", "detailed-sim (0)"},
	{"recovery.recover_s", func(fn string) bool {
		return strings.HasPrefix(fn, "ppa/internal/recovery.") ||
			strings.HasPrefix(fn, "ppa/internal/persist.") && strings.HasSuffix(fn, "Scheme.Recover")
	}, "unit_ms_p90 on crash-sweep", "detailed-sim (0)"},
	{"litmus.model_s", func(fn string) bool {
		return frameIs("ppa/internal/litmus.Compile")(fn) || strings.HasPrefix(fn, "ppa/internal/litmus/px86.")
	}, "unit_ms_p50 on litmus-corpus", "detailed-sim"},
	{"runtime.gc_s", prefixed("runtime.gc", "runtime.bgsweep", "runtime.bgscavenge"),
		"unit_ms_p90, max_rss_mb on crash-sweep and litmus-corpus", "detailed-sim"},
}

// layerPredictions is the layer -> end-to-end table, printed with every
// traced run so its split can be read against it.
var layerPredictions = func() []map[string]string {
	var t []map[string]string
	for _, l := range layers {
		t = append(t, map[string]string{"layer": l.name, "moves": l.moves, "flat_on": l.flat})
	}
	return append(t, map[string]string{"layer": otherLayer, "moves": "none", "flat_on": ""})
}()

// layerOf names the layer a stack (innermost frame first) belongs to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, l := range layers {
			if l.matches(fn) {
				return l.name
			}
		}
	}
	return otherLayer
}

// splitProfile reads a gzipped pprof CPU profile, as runtime/pprof writes
// it, and sums its CPU time per layer, in seconds.
func splitProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	split := map[string]float64{otherLayer: 0}
	for _, l := range layers {
		split[l.name] = 0
	}
	cache := map[string]string{}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile: sample without a cpu-time value")
		}
		var stack []string
		var key strings.Builder
		for _, id := range s.locs {
			fmt.Fprintf(&key, "%d,", id)
			for _, fid := range p.locations[id] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		l, ok := cache[key.String()]
		if !ok {
			l = layerOf(stack)
			cache[key.String()] = l
		}
		split[l] += float64(s.values[1]) / 1e9
	}
	return split, nil
}

// profile holds the parts of a pprof protobuf message that the split
// needs: samples, each location's inlined function chain (innermost
// first), function names, and the string table.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s sample
			if err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendScalars(&s.locs, v, m, func(x uint64) uint64 { return x })
				case 2:
					return appendScalars(&s.values, v, m, func(x uint64) int64 { return int64(x) })
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendScalars appends a repeated varint field's values, whether the
// encoder wrote them one by one (msg == nil) or packed.
func appendScalars[T any](dst *[]T, v uint64, msg []byte, conv func(uint64) T) error {
	if msg == nil {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, conv(x))
		msg = msg[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (non-nil, possibly empty).
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length-delimited field")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
			if msg == nil {
				msg = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}
