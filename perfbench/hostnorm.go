package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// hostClock turns wall time into host-normalized time. The development
// host is a virtual machine shared with other tenants, and how fast it
// runs the same code changes by up to 40% over seconds to minutes: one
// stress-sweep process ran the same cycle of ops at 1,590 sim_s/wall_s
// and at 990. Every statistic taken within a run (median, low or high
// percentile) follows such a change when it lasts as long as the run.
//
// So the timed phase interleaves a fixed reference probe with the ops:
// about every probeEvery wall seconds, before an op and outside its
// timing, it times the probe, a binary-heap sort of a preallocated
// array. A timed interval of wall seconds w is then worth
// w * probeNominalS / p normalized seconds, where p is the median of the
// probeNear probe times nearest to the interval's middle. On a host that
// runs the probe in probeNominalS, normalized seconds are wall seconds.
//
// The probe is the benchmark's own code: it calls nothing in the program,
// allocates nothing, and so takes the same time for every version of the
// program on a host of a given speed. A change to the program moves the
// normalized figures exactly as it moves the wall-time ones. The probe
// slows down less than the simulator on a contended host (1.25 times
// where field10k ops slowed 1.6 times), so normalizing takes out most of
// a change of host speed, not all: three runs of one field10k seed ranged
// 15% in wall-time throughput and 4.4% normalized.
type hostClock struct {
	start  time.Time
	next   float64 // wall seconds since start when the next probe is due
	heap   []uint64
	probes []probeSample
}

type probeSample struct {
	at   float64 // wall seconds since start, middle of the probe
	wall float64 // seconds the probe took
}

const (
	// probeItems is the size of the probe's heap: 512 KiB of uint64s,
	// about 10 ms of work on the development host.
	probeItems = 1 << 16
	// probeNominalS is the probe time of the normalized host: the
	// development host's median probe time, so normalized figures read
	// close to wall-time ones there.
	probeNominalS = 0.010
	// probeEvery is the wall time between probes: the host's speed
	// changes over seconds, and a probe takes about 4% of it.
	probeEvery = 0.25
	// probeNear is how many probes, nearest in time, set an interval's
	// host speed: their median outvotes a probe an interruption slowed.
	probeNear = 5
)

func newHostClock() *hostClock {
	c := &hostClock{start: time.Now(), heap: make([]uint64, 0, probeItems)}
	c.probe() // the first one warms the caches; it is not kept
	c.sample()
	return c
}

// elapsed is the wall seconds since the clock started.
func (c *hostClock) elapsed(t time.Time) float64 { return t.Sub(c.start).Seconds() }

// maybeSample times the probe if one is due.
func (c *hostClock) maybeSample() {
	if c.elapsed(time.Now()) >= c.next {
		c.sample()
	}
}

func (c *hostClock) sample() {
	t0 := time.Now()
	c.probe()
	w := time.Since(t0).Seconds()
	c.probes = append(c.probes, probeSample{at: c.elapsed(t0) + w/2, wall: w})
	c.next = c.elapsed(time.Now()) + probeEvery
}

// probeSink keeps the probe's result live.
var probeSink uint64

// probe pushes probeItems xorshift values onto a binary min-heap and pops
// them all: branchy, cache-resident integer work, as the simulator's
// event queue and per-mote loops are.
func (c *hostClock) probe() {
	h := c.heap[:0]
	x := uint64(88172645463325252)
	for i := 0; i < probeItems; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, x)
		for k := len(h) - 1; k > 0; {
			p := (k - 1) / 2
			if h[p] <= h[k] {
				break
			}
			h[p], h[k] = h[k], h[p]
			k = p
		}
	}
	var sum uint64
	for n := len(h); n > 0; {
		sum += h[0]
		n--
		h[0] = h[n]
		h = h[:n]
		for k := 0; ; {
			l := 2*k + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r] < h[l] {
				l = r
			}
			if h[k] <= h[l] {
				break
			}
			h[k], h[l] = h[l], h[k]
			k = l
		}
	}
	probeSink += sum
}

// norm converts wall seconds measured from t0 into normalized seconds.
// Call it only after the timed phase, when probes surround every
// interval.
func (c *hostClock) norm(t0 time.Time, wall float64) float64 {
	return wall * probeNominalS / c.probeAt(c.elapsed(t0)+wall/2)
}

// probeAt is the median of the probeNear probe times nearest to at.
func (c *hostClock) probeAt(at float64) float64 {
	i := sort.Search(len(c.probes), func(i int) bool { return c.probes[i].at >= at })
	lo, hi := i-probeNear, i+probeNear-1 // the nearest lie within probes[lo : hi+1]
	if lo < 0 {
		lo = 0
	}
	if hi > len(c.probes)-1 {
		hi = len(c.probes) - 1
	}
	near := append([]probeSample(nil), c.probes[lo:hi+1]...)
	sort.Slice(near, func(a, b int) bool { return math.Abs(near[a].at-at) < math.Abs(near[b].at-at) })
	if len(near) > probeNear {
		near = near[:probeNear]
	}
	w := make([]float64, len(near))
	for k, s := range near {
		w[k] = s.wall
	}
	return percentile(w, 0.5)
}

// hostNote reports the loop's throughput in wall time and the range of
// the probe times, for a reader comparing runs.
func hostNote(l loopStats, c *hostClock) string {
	w := make([]float64, len(c.probes))
	for i, s := range c.probes {
		w[i] = s.wall
	}
	return fmt.Sprintf("%.4g sim_s per wall s; %d probes, %.4g s median (%.4g-%.4g s)",
		l.simPerWall(), len(w), percentile(w, 0.5), percentile(w, 0), percentile(w, 1))
}
