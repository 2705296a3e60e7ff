package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// loopStats summarizes a closed loop: ops ran back to back on one
// goroutine, the next starting only when the previous returned.
type loopStats struct {
	attempted, failed int
	opStart           []time.Time
	opWall            []float64 // wall seconds of each op
	opSim             []float64 // simulated seconds of each op
	firstErr          error
}

// opNorm returns each op's host-normalized seconds.
func (l loopStats) opNorm(c *hostClock) []float64 {
	n := make([]float64, len(l.opWall))
	for i, w := range l.opWall {
		n[i] = c.norm(l.opStart[i], w)
	}
	return n
}

// simPerNorm is the loop's simulated seconds per host-normalized
// second, over the whole loop. Summing before dividing weighs each op by
// its length, as a user waiting for the whole run would; in sizing it
// repeated within 0.2-3% between runs of one seed on a contended host,
// where the median of per-op rates moved 4-7%.
func (l loopStats) simPerNorm(c *hostClock) float64 {
	var sim, norm float64
	for i, n := range l.opNorm(c) {
		sim += l.opSim[i]
		norm += n
	}
	return sim / norm
}

// simPerWall is the loop's simulated seconds per wall second, as the
// host ran it: reported on standard error only.
func (l loopStats) simPerWall() float64 {
	var sim, wall float64
	for i := range l.opWall {
		sim += l.opSim[i]
		wall += l.opWall[i]
	}
	return sim / wall
}

// closedLoop runs op until seconds of wall time have passed, stopping
// only after a whole number of cycles of ops (at least one), so a
// workload whose ops cycle through a fixed mix always measures the whole
// mix. An op fails when it returns an error: its call failed or its
// output check rejected the output. Between ops, outside their timing,
// it samples the host clock's probe when one is due and calls between
// with the wall seconds since the loop began.
func closedLoop(seconds float64, cycle int, clock *hostClock, op func() (simS float64, err error), between func(elapsed float64)) loopStats {
	var l loopStats
	start := time.Now()
	for l.attempted == 0 || l.attempted%cycle != 0 || time.Since(start).Seconds() < seconds {
		clock.maybeSample()
		t0 := time.Now()
		simS, err := op()
		wall := time.Since(t0).Seconds()
		l.attempted++
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = fmt.Errorf("op %d: %w", l.attempted, err)
			}
		}
		l.opStart = append(l.opStart, t0)
		l.opWall = append(l.opWall, wall)
		l.opSim = append(l.opSim, simS)
		between(time.Since(start).Seconds())
	}
	clock.sample() // probes now surround every op
	return l
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean is sum/n, or 0 when nothing was counted.
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// heapAfterGC returns live heap bytes after forced collections.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// liveBytes returns the live heap bytes that build leaves behind.
func liveBytes(build func() error) (uint64, error) {
	before := heapAfterGC()
	if err := build(); err != nil {
		return 0, err
	}
	after := heapAfterGC()
	if after < before {
		return 0, nil
	}
	return after - before, nil
}

// setupTimer times builds spread evenly through a run's timed phase,
// between ops and outside their timing, and reports the lower quartile
// of their host-normalized times. Host speed changes over seconds on a
// shared host; builds spread over the whole phase sample it as the ops
// do, and the host clock's probes around each build take most of the
// change out. Not all of it: a contended stretch slowed field10k builds
// by up to 1.8 times and the probe by 1.25, so a run's normalized build
// times stay bimodal, and the share of contended builds drifts from run
// to run. Contention only ever slows a build down; the lower quartile is
// the uncontended builds' time, which every run has. Over three runs of
// one field10k seed it ranged 12% where the median ranged 29%; over two
// runs of one dense-passive-dir seed, 0.1-0.5% against 9%.
//
// The collector is off while a build is timed and collects the build
// right after it. A collection during a build marks everything else the
// process holds, above all the network the ops run on; whether one falls
// inside a build depends on where the heap stands against its goal, so
// timing it made build times bimodal (0.04 s or 0.12-0.20 s for the same
// field10k build). What a build allocates shows in the per-layer
// setup.allocs_per_mote and in live_bytes_per_mote.
type setupTimer struct {
	build  func() error
	builds int
	every  float64 // wall seconds between builds
	next   float64
	warm   bool // the untimed first build has run
	starts []time.Time
	times  []float64
	err    error
}

func newSetupTimer(seconds float64, builds int, build func() error) *setupTimer {
	every := seconds / float64(builds)
	return &setupTimer{build: build, builds: builds, every: every, next: every / 2}
}

// between times a build once the next one is due. The first build is not
// timed: it grows the heap to hold a second network, which no later
// build has to do.
func (s *setupTimer) between(elapsed float64) {
	if s.err != nil || elapsed < s.next {
		return
	}
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	if !s.warm {
		s.warm = true
		if s.err = s.build(); s.err != nil {
			return
		}
		runtime.GC()
	}
	s.next += s.every
	t0 := time.Now()
	s.err = s.build()
	s.starts = append(s.starts, t0)
	s.times = append(s.times, time.Since(t0).Seconds())
	runtime.GC()
}

// finish times the builds the timed phase left undone, each followed by
// a probe, and returns the lower quartile of the host-normalized build
// times, the setup_s metric.
func (s *setupTimer) finish(clock *hostClock) (float64, error) {
	for s.err == nil && len(s.times) < s.builds {
		s.between(s.next)
		clock.sample()
	}
	norm := make([]float64, len(s.times))
	for i, w := range s.times {
		norm[i] = clock.norm(s.starts[i], w)
	}
	return percentile(norm, 0.25), s.err
}
