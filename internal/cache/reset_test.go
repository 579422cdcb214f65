package cache

import (
	"reflect"
	"sync"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/nvm"
)

// resetParams is a small two-core memory-mode hierarchy whose caches and
// write buffers fill within a short stream, so evictions, back-invalidations,
// coherence misses and write-buffer backpressure all occur.
func resetParams() Params {
	p := DefaultParams(2)
	p.L1DSize = 2 << 10
	p.L1DWays = 2
	p.L2Size = 8 << 10
	p.L2Ways = 4
	p.DRAMCacheSize = 16 << 10
	p.WBEntries = 8
	p.PersistTransit = 6
	p.PersistLag = 200
	return p
}

// hierTrace is everything a stream of accesses observes of a hierarchy.
type hierTrace struct {
	Latency  []uint64 // per access: completion minus issue cycle
	Tokens   []int64  // per persist: ack token, -1 when the buffer was full
	Depths   []int    // per cycle: summed write-buffer depth after Tick
	Acked    []bool   // per cycle: whether the newest token has been acked
	L1Hits   []uint64
	L1Misses []uint64
	L2Hits   uint64
	L2Misses uint64
	L2Miss   float64
	DRAMMiss float64
	NVMWB    uint64 // deltas over the stream: the hierarchy's counters
	DRAMWB   uint64 // outlive a power failure
	Inval    uint64
	Enqueued uint64
	Coalesce uint64
	MaxDepth []int
}

// driveHier runs a fixed pseudo-random load/store/persist stream starting
// at cycle 0. seed picks the stream, so the traffic that dirties a
// hierarchy before its reset differs from the stream being compared.
func driveHier(t *testing.T, h *Hierarchy, seed uint64, steps int) *hierTrace {
	t.Helper()
	tr := &hierTrace{}
	nvmWB, dramWB, inval := h.NVMWritebacks, h.DRAMWritebacks, h.Invalidations
	rng := seed
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}
	last := [2]int64{-1, -1}
	for cycle := uint64(0); cycle < uint64(steps); cycle++ {
		if err := h.Tick(cycle); err != nil {
			t.Errorf("cycle %d: %v", cycle, err) // not Fatal: also called off the test goroutine
			return tr
		}
		r := next()
		core := int(r & 1)
		write := r&6 == 0
		addr := (r >> 3 % 4096) * isa.WordSize // 32 KB: twice the DRAM cache
		tr.Latency = append(tr.Latency, h.Access(core, addr, write, cycle)-cycle)
		if write {
			h.StoreData(addr, r)
			tok, ok := h.PersistStore(core, addr, r, cycle)
			if !ok {
				tok = -1
			} else {
				last[core] = tok
			}
			tr.Tokens = append(tr.Tokens, tok)
		}
		if r%97 == 0 {
			h.FlushWB(core, cycle)
		}
		depth := 0
		for c := range h.wbs {
			depth += h.wbs[c].depth()
		}
		tr.Depths = append(tr.Depths, depth)
		tr.Acked = append(tr.Acked, last[core] >= 0 && h.PersistAcked(core, last[core]))
	}
	for c := range h.l1 {
		tr.L1Hits = append(tr.L1Hits, h.l1[c].Hits)
		tr.L1Misses = append(tr.L1Misses, h.l1[c].Misses)
		tr.MaxDepth = append(tr.MaxDepth, h.wbs[c].MaxDepth)
	}
	tr.L2Hits, tr.L2Misses = h.l2.Hits, h.l2.Misses
	tr.L2Miss, tr.DRAMMiss = h.L2MissRate(), h.DRAMCacheMissRate()
	tr.NVMWB = h.NVMWritebacks - nvmWB
	tr.DRAMWB = h.DRAMWritebacks - dramWB
	tr.Inval = h.Invalidations - inval
	tr.Enqueued, tr.Coalesce = h.WBStats()
	return tr
}

func newResetHier() *Hierarchy {
	return New(resetParams(), nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
}

// residentLines lists the lines valid in a tag array.
func residentLines(c *setAssoc) []uint64 {
	var lines []uint64
	for i := range c.w {
		if c.w[i].gen == c.gen {
			lines = append(lines, c.w[i].tag)
		}
	}
	return lines
}

// TestResetHierarchyMatchesFresh drives one stream into a fresh hierarchy,
// one that carried traffic and then lost power, and one built on storage
// another hierarchy released: all three must observe exactly the same
// hits, misses, evictions, write-buffer depths and ack tokens.
func TestResetHierarchyMatchesFresh(t *testing.T) {
	const steps = 4000
	want := driveHier(t, newResetHier(), 2, steps)
	if want.NVMWB == 0 || want.Inval == 0 || want.L2Misses == 0 || want.Coalesce == 0 {
		t.Fatalf("stream too tame to compare: %d NVM writebacks, %d invalidations, %d L2 misses, %d coalesced", want.NVMWB, want.Inval, want.L2Misses, want.Coalesce)
	}
	full := false
	for _, tok := range want.Tokens {
		full = full || tok < 0
	}
	if !full {
		t.Fatal("stream never filled a write buffer")
	}

	failed := newResetHier()
	driveHier(t, failed, 1, steps)
	failed.PowerFail()
	if got := driveHier(t, failed, 2, steps); !reflect.DeepEqual(got, want) {
		t.Errorf("hierarchy after PowerFail diverges from a fresh one")
	}

	// Sync pools may drop an item (the race detector drops a quarter of
	// all Puts on purpose), so retry until the L2 storage is reused.
	var reused *Hierarchy
	var held []uint64
	for try := 0; try < 16 && reused == nil; try++ {
		old := newResetHier()
		driveHier(t, old, 1, steps)
		held = residentLines(old.l2)
		storage := &old.l2.w[0]
		old.Release()
		if h := newResetHier(); &h.l2.w[0] == storage {
			reused = h
		}
	}
	if reused == nil {
		t.Fatal("released L2 storage was never reused")
	}
	if len(held) == 0 {
		t.Fatal("released hierarchy held no lines")
	}
	for _, line := range held {
		if reused.l2.lookup(line) >= 0 {
			t.Fatalf("line %#x of the released hierarchy hits in its successor", line)
		}
	}
	if got := driveHier(t, reused, 2, steps); !reflect.DeepEqual(got, want) {
		t.Errorf("hierarchy on released storage diverges from a fresh one")
	}
}

// tagOp is one tag-array operation's observable result.
type tagOp struct {
	hit, dirty, evicted bool
	victim              uint64
}

func driveTags(c *setAssoc, seed uint64, steps int) []tagOp {
	var ops []tagOp
	rng := seed
	for i := 0; i < steps; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		r := rng >> 33
		line := (r >> 2 % 96) * isa.LineSize
		var op tagOp
		switch r & 3 {
		case 0:
			op.hit, op.dirty = c.invalidate(line)
		default:
			if op.hit = c.access(line, r&1 == 1); !op.hit {
				op.victim, op.dirty, op.evicted = c.install(line, r&1 == 1)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// TestTagArrayResetMatchesFresh compares the victims a tag array picks
// when fresh, after a reset, and on a released array's storage.
func TestTagArrayResetMatchesFresh(t *testing.T) {
	const size, ways, steps = 32 * isa.LineSize, 4, 3000
	fresh := newSetAssoc(size, ways)
	want := driveTags(fresh, 2, steps)

	reset := newSetAssoc(size, ways)
	driveTags(reset, 1, steps)
	reset.reset()
	if got := driveTags(reset, 2, steps); !reflect.DeepEqual(got, want) {
		t.Error("reset tag array diverges from a fresh one")
	}
	if reset.Hits != fresh.Hits || reset.Misses != fresh.Misses || reset.MissRate() != fresh.MissRate() {
		t.Errorf("reset statistics %d/%d, fresh %d/%d", reset.Hits, reset.Misses, fresh.Hits, fresh.Misses)
	}

	old := newSetAssoc(size, ways)
	driveTags(old, 1, steps)
	old.release()
	if got := driveTags(newSetAssoc(size, ways), 2, steps); !reflect.DeepEqual(got, want) {
		t.Error("tag array on released storage diverges from a fresh one")
	}
}

// TestTagArrayGenerationWrap forces the generation to its last value: the
// reset that wraps it must clear the ways, or lines installed in the
// array's first generation would come back valid.
func TestTagArrayGenerationWrap(t *testing.T) {
	c := newSetAssoc(64<<10, 8)
	c.gen = 1 // install in the generation the wrap lands on
	c.install(0x40, true)
	c.install(0x80, false)
	c.gen = 0xFFFF // as if 65534 resets had passed without a wrap
	c.reset()
	if c.gen != 1 {
		t.Fatalf("wrapped generation %d, want 1", c.gen)
	}
	for _, line := range []uint64{0x40, 0x80} {
		if c.access(line, false) {
			t.Fatalf("line %#x survived the generation wrap", line)
		}
	}
	if c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("statistics after wrap: %d hits, %d misses", c.Hits, c.Misses)
	}
	c.install(0x40, false)
	if !c.access(0x40, false) {
		t.Fatal("install after the wrap must hit")
	}
}

// TestReleaseConcurrent builds, drives and releases hierarchies from
// several goroutines at once, as parallel torture sweeps do: the pools
// must never hand one array to two owners, so every run sees exactly the
// fresh hierarchy's trace.
func TestReleaseConcurrent(t *testing.T) {
	const steps, workers, rounds = 1500, 4, 6
	want := driveHier(t, newResetHier(), 2, steps)
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := newResetHier()
				got := driveHier(t, h, 2, steps)
				h.Release()
				if !reflect.DeepEqual(got, want) {
					errs <- "a hierarchy built on pooled storage diverged under concurrent reuse"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
