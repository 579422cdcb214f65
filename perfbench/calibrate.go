package main

import (
	"math"
	"syscall"
	"time"
	"unsafe"
)

// refKernel is the calibration kernel's typical time on the reference
// host, a 2-vCPU Intel Xeon virtual machine with Go 1.24. Normalized times
// are what a unit would have taken there at such a moment.
const refKernel = 6e-3 // seconds

// calEvery is how often, at most, the kernel runs during a timed loop.
const calEvery = time.Second

// calibrator measures how fast the host is at the moment, with code that
// belongs to the benchmark and so never changes with the simulator. On a
// shared host the simulator's speed follows its neighbours' use of the
// memory system: on the reference host the same pass took up to twice as
// long from one minute to the next. The kernel is made of the two
// access patterns whose times tracked the simulator's best over such
// swings, out of streaming stores, dependent loads over 16 and 64 MB and
// pure arithmetic: clearing an 8 MB buffer, and a chase of dependent
// random loads through a 64 MB table, which misses the caches and the
// TLB as the simulator's large arrays do. A unit's time divided by the
// kernel's, taken in the nearest runs before and after the unit's pass,
// follows the simulator's own cost rather than the host's.
//
// The kernel's memory lives outside the Go heap, so that it changes
// neither the collector's pacing of the simulator's heap nor allocation
// counts. It does count in the resident set; calibratorMB says how much.
type calibrator struct {
	buf  []byte
	tab  []uint32
	sink uint32
}

const (
	calibratorBuf = 8 << 20
	calibratorTab = 16 << 20 // entries of 4 bytes
	// calibratorMB is the kernel's resident size in the units of
	// peakRSSMB.
	calibratorMB = (calibratorBuf + 4*calibratorTab) >> 20
)

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibratorBuf+4*calibratorTab, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{
		buf: mem[:calibratorBuf],
		tab: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[calibratorBuf])), calibratorTab),
	}
	x := uint32(0x9E3779B9)
	for i := range c.tab {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.tab[i] = x & (calibratorTab - 1)
	}
	c.measure() // first touch of the buffer's pages
	return c, nil
}

// measure runs the kernel once and returns the geometric mean of its two
// parts' times, in seconds.
func (c *calibrator) measure() float64 {
	t := time.Now()
	for i := 0; i < 2; i++ {
		clear(c.buf)
	}
	stream := time.Since(t).Seconds()
	t = time.Now()
	idx := c.sink
	for i := uint32(0); i < 1<<17; i++ {
		idx = c.tab[idx] ^ i&0xff
	}
	chase := time.Since(t).Seconds()
	c.sink = idx
	return math.Sqrt(stream * chase)
}
