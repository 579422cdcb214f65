// Package cache models the memory hierarchy of Table 2: per-core L1D, a
// shared SRAM L2 (optionally a private L2 + shared L3 for the Figure 14
// study), a direct-mapped DRAM cache (PMEM memory mode), and the NVM device
// below. It also implements the L1D write buffer that carries PPA's
// asynchronous store persistence with persist coalescing (Section 4.3).
//
// The hierarchy is split into two layers:
//
//   - a timing layer: set-associative tag arrays that decide hit level,
//     latency, and evictions;
//   - a functional layer: a single "volatile dirty words" map holding every
//     word value that has been written but is not yet durable in NVM. A
//     power failure drops this map (and the write buffers); recovery
//     correctness is judged against what survived in the NVM image.
package cache

import (
	"sync"

	"ppa/internal/isa"
)

// saWay is one way's tag state. The fields pack to 16 bytes so a whole
// 4-way set shares one hardware cache line — the tag arrays are probed
// several times per simulated cycle, and the previous parallel-slice layout
// (tags/valid/dirty/lru in four separate arrays) cost four cache lines per
// probe.
//
// A way is valid when its gen equals its array's generation, so a power
// failure invalidates a whole array by bumping one counter instead of
// clearing megabytes of ways. gen 0 is never a live generation: fresh
// storage is all-invalid and invalidate() writes it.
type saWay struct {
	tag   uint64
	lru   uint32
	gen   uint16
	dirty bool
}

// setAssoc is an LRU set-associative tag array.
type setAssoc struct {
	ways    int
	setMask uint64
	w       []saWay
	gen     uint16
	clock   uint32

	Hits   uint64
	Misses uint64
}

// waySlab carries released ways through their size's pool, together with
// the generation they were last valid in: a later owner must start past
// it or the previous owner's lines would hit.
type waySlab struct {
	w   []saWay
	gen uint16
}

// wayPools holds released tag-array storage, one *sync.Pool per way count.
var wayPools sync.Map

// sizedPool returns the pool for storage of n elements, creating it on
// first use.
func sizedPool(pools *sync.Map, n int) *sync.Pool {
	if p, ok := pools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

// newSetAssoc builds a cache with the given total size in bytes and
// associativity; sets = size / (64 * ways). Size must make sets a power of
// two, which all Table 2 configurations do. Storage comes from a released
// array of the same size when one is pooled.
func newSetAssoc(sizeBytes uint64, ways int) *setAssoc {
	sets := sizeBytes / uint64(isa.LineSize) / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two.
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	n := int(sets) * ways
	c := &setAssoc{ways: ways, setMask: sets - 1}
	if slab, ok := sizedPool(&wayPools, n).Get().(*waySlab); ok {
		c.w, c.gen = slab.w, slab.gen
	} else {
		c.w = make([]saWay, n)
	}
	c.reset()
	return c
}

// reset invalidates every way and zeroes the statistics: the array is
// empty, exactly as built. It clears the ways only when the generation
// wraps.
func (c *setAssoc) reset() {
	if c.gen++; c.gen == 0 {
		clear(c.w)
		c.gen = 1
	}
	c.clock = 0
	c.Hits = 0
	c.Misses = 0
}

// release hands the storage back to its pool. The statistics stay
// readable; any further probe panics on the nil ways.
func (c *setAssoc) release() {
	if c.w == nil {
		return
	}
	sizedPool(&wayPools, len(c.w)).Put(&waySlab{w: c.w, gen: c.gen})
	c.w = nil
}

func (c *setAssoc) setBase(line uint64) int {
	return int((line/isa.LineSize)&c.setMask) * c.ways
}

// lookup probes the array without changing state; returns the way slot
// index or -1.
func (c *setAssoc) lookup(line uint64) int {
	base := c.setBase(line)
	gen := c.gen
	for w := 0; w < c.ways; w++ {
		if e := &c.w[base+w]; e.gen == gen && e.tag == line {
			return base + w
		}
	}
	return -1
}

// access probes and updates LRU; returns hit.
func (c *setAssoc) access(line uint64, write bool) bool {
	c.clock++
	if slot := c.lookup(line); slot >= 0 {
		e := &c.w[slot]
		e.lru = c.clock
		if write {
			e.dirty = true
		}
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// install inserts a line, returning the evicted victim line and whether it
// was dirty. ok=false means no eviction was necessary.
func (c *setAssoc) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	c.clock++
	base := c.setBase(line)
	gen := c.gen
	// Prefer an invalid way.
	slot := -1
	for w := 0; w < c.ways; w++ {
		if c.w[base+w].gen != gen {
			slot = base + w
			break
		}
	}
	if slot < 0 {
		// Evict LRU.
		slot = base
		for w := 1; w < c.ways; w++ {
			if c.w[base+w].lru < c.w[slot].lru {
				slot = base + w
			}
		}
		victim, victimDirty, evicted = c.w[slot].tag, c.w[slot].dirty, true
	}
	c.w[slot] = saWay{tag: line, lru: c.clock, gen: gen, dirty: write}
	return victim, victimDirty, evicted
}

// invalidate removes a line (back-invalidation), reporting whether it was
// present and dirty.
func (c *setAssoc) invalidate(line uint64) (present, dirty bool) {
	if slot := c.lookup(line); slot >= 0 {
		e := &c.w[slot]
		e.gen = 0
		return true, e.dirty
	}
	return false, false
}

// markDirty sets the dirty bit if present.
func (c *setAssoc) markDirty(line uint64) {
	if slot := c.lookup(line); slot >= 0 {
		c.w[slot].dirty = true
	}
}

// MissRate returns the fraction of accesses that missed.
func (c *setAssoc) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// dmEntry is a direct-mapped DRAM-cache slot.
type dmEntry struct {
	tag   uint64
	dirty bool
}

// dramCache is the direct-mapped 4 GB DRAM cache of PMEM's memory mode.
// Only touched sets are materialized.
type dramCache struct {
	setMask uint64
	sets    map[uint64]dmEntry

	Hits   uint64
	Misses uint64
}

func newDRAMCache(sizeBytes uint64) *dramCache {
	sets := sizeBytes / isa.LineSize
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	return &dramCache{setMask: p - 1, sets: make(map[uint64]dmEntry)}
}

// reset empties the cache and zeroes the statistics, keeping the map.
func (d *dramCache) reset() {
	clear(d.sets)
	d.Hits = 0
	d.Misses = 0
}

func (d *dramCache) setIndex(line uint64) uint64 { return (line / isa.LineSize) & d.setMask }

// access probes; on hit (write) marks dirty.
func (d *dramCache) access(line uint64, write bool) bool {
	idx := d.setIndex(line)
	e, ok := d.sets[idx]
	if ok && e.tag == line {
		if write && !e.dirty {
			e.dirty = true
			d.sets[idx] = e
		}
		d.Hits++
		return true
	}
	d.Misses++
	return false
}

// install inserts a line, returning the conflicting victim if any.
func (d *dramCache) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	idx := d.setIndex(line)
	if e, ok := d.sets[idx]; ok && e.tag != line {
		victim, victimDirty, evicted = e.tag, e.dirty, true
	}
	d.sets[idx] = dmEntry{tag: line, dirty: write}
	return victim, victimDirty, evicted
}

func (d *dramCache) markDirty(line uint64) {
	idx := d.setIndex(line)
	if e, ok := d.sets[idx]; ok && e.tag == line {
		e.dirty = true
		d.sets[idx] = e
	}
}

func (d *dramCache) MissRate() float64 {
	t := d.Hits + d.Misses
	if t == 0 {
		return 0
	}
	return float64(d.Misses) / float64(t)
}
