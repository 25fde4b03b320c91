package main

import (
	"slices"
	"sync"
	"time"
)

// The calibration kernel is the benchmark's own yardstick for how fast
// this host is right now: a fixed amount of work run on `jobs` goroutines,
// the same parallelism an optimize op uses. It touches no repository code,
// so no PR can change it, and it reuses its buffers so it never perturbs
// the garbage collector's pacing of the ops around it. An op's cost is
// reported as op wall ÷ mean calibration wall measured immediately before
// and after it: CPU steal, frequency changes and a busy neighbour slow
// both and largely cancel.
//
// The kernel is three quarters register arithmetic and one quarter
// cache- and memory-bound work (a sort, then map inserts). The mix is
// measured, not guessed: with a deliberate one-core CPU hog beside the
// benchmark a clang op slows by 57 %, the arithmetic phase by 51 %, but
// the sort+map phase by 100 %, so a kernel of sort+map alone over-corrects
// (calibrated cost −17 %) while this mix stays within 5 %; on a quiet host
// op ÷ arithmetic was also the steadier ratio across processes (2.5 %
// against 3.4 % interquartile spread). The memory-bound quarter is kept so
// that contention for memory bandwidth is not invisible.
const (
	calibArithN = 30_000_000
	calibSortN  = 200_000
	calibMapN   = 100_000
)

type calibrator struct {
	keys []([]uint64)
	maps []map[uint64]uint64
	sink uint64
}

func newCalibrator(jobs int) *calibrator {
	c := &calibrator{}
	for i := 0; i < jobs; i++ {
		c.keys = append(c.keys, make([]uint64, calibSortN))
		c.maps = append(c.maps, make(map[uint64]uint64, calibMapN))
	}
	c.run() // the first execution pays for faulting the buffers in
	return c
}

// run executes the kernel once and returns its wall time in seconds.
func (c *calibrator) run() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, len(c.keys))
	for w := range c.keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys, m := c.keys[w], c.maps[w]
			x := uint64(0x9E3779B97F4A7C15) + uint64(w)
			var sum uint64
			for i := 0; i < calibArithN; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				sum += x
			}
			for i := range keys {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				keys[i] = x
			}
			slices.Sort(keys)
			clear(m)
			for i := 0; i < calibMapN; i++ {
				m[keys[i*2]*0x9E3779B97F4A7C15] = uint64(i)
			}
			sums[w] = sum + keys[len(keys)/2] + uint64(len(m))
		}()
	}
	wg.Wait()
	for _, s := range sums {
		c.sink += s
	}
	return time.Since(start).Seconds()
}
