package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"envirotrack"
	"envirotrack/internal/eval"
	"envirotrack/internal/obs"
	"envirotrack/internal/simtime"
	"envirotrack/internal/trace"
)

// The traced run gives the per-layer metrics. It runs a fixed amount of
// simulated work, so every simulation count it reports is exact and
// repeats for a seed (the Go allocation counts only nearly repeat: map
// hashing is seeded at random); the same work is first run untraced,
// which gives the runtime metrics and the tracing overhead. Wall time per layer is the
// scheduler self-profile's attribution to the owner of each event, not
// to the code that ran it.

// layerSink tallies the events the per-layer metrics need. It wraps the
// existing CounterSink, which counts every event by type.
type layerSink struct {
	counter *envirotrack.CounterSink

	mu                        sync.Mutex
	sent, bits                map[trace.Kind]uint64 // frames put on the air
	received, lost, collision map[trace.Kind]uint64 // receptions
}

func newLayerSink() *layerSink {
	return &layerSink{
		counter: envirotrack.NewCounterSink(),
		sent:    map[trace.Kind]uint64{}, bits: map[trace.Kind]uint64{},
		received: map[trace.Kind]uint64{}, lost: map[trace.Kind]uint64{}, collision: map[trace.Kind]uint64{},
	}
}

// Emit implements obs.Sink.
func (s *layerSink) Emit(ev obs.Event) {
	s.counter.Emit(ev)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case obs.EvFrameSent:
		s.sent[ev.Kind]++
		s.bits[ev.Kind] += uint64(ev.Bits)
	case obs.EvFrameReceived:
		s.received[ev.Kind]++
	case obs.EvFrameLost:
		s.lost[ev.Kind]++
		if ev.Cause == trace.LossCollision.String() {
			s.collision[ev.Kind]++
		}
	}
}

// resetFrames restarts the per-kind frame tallies.
func (s *layerSink) resetFrames() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range []map[trace.Kind]uint64{s.sent, s.bits, s.received, s.lost, s.collision} {
		clear(m)
	}
}

func sum(m map[trace.Kind]uint64) float64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return float64(t)
}

// layerCounts is a snapshot of everything the traced run counts.
type layerCounts struct {
	owners []simtime.OwnerStat
	events map[obs.EventType]uint64
}

func snapshot(p *envirotrack.SelfProfile, s *layerSink) layerCounts {
	return layerCounts{owners: p.Snapshot(), events: s.counter.Counts()}
}

// senseEvents is the number of sensing sweeps p has counted.
func senseEvents(p *envirotrack.SelfProfile) uint64 {
	for _, st := range p.Snapshot() {
		if st.Owner == simtime.OwnerSense {
			return st.Events
		}
	}
	return 0
}

// traceObs is the observability a traced run attaches.
type traceObs struct {
	profile *envirotrack.SelfProfile
	sink    *layerSink
	spans   *spanLog
}

func newTraceObs() traceObs {
	return traceObs{profile: envirotrack.NewSelfProfile(), sink: newLayerSink(), spans: newSpanLog()}
}

// untraced is the reference run of the traced run's work with tracing off.
type untraced struct {
	wallS         float64
	allocs, pause float64 // heap allocations and GC pause ns over the work
}

// measureUntraced times work and counts its allocations and GC pauses.
func measureUntraced(work func()) untraced {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	work()
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return untraced{
		wallS:  wall,
		allocs: float64(m1.Mallocs - m0.Mallocs),
		pause:  float64(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	simS          float64 // simulated seconds of the traced work
	wallS         float64 // wall seconds of the traced work's ops
	runWallS      float64 // wall seconds inside the traced work's Run calls
	before, after layerCounts
	sink          *layerSink
	ref           untraced
	motes         float64 // motes the traced setup built
	moteSamples   float64 // motes the sensing sweeps of the traced work scanned
	nearShare     float64
	setup         setupCost
	// Base-station client figures; zero where the workload has none.
	answerSimS, replySimS, replyPct, reportDeliveryPct float64
}

// setupCost is one traced build's cost.
type setupCost struct {
	newS, attachS       float64
	allocs, attachBytes float64
}

// traceSetup runs a traced build with allocation accounting. As in the
// timed builds of setup_s, the collector is off during the build.
func traceSetup(spans *spanLog, build func() error) (setupCost, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc := debug.SetGCPercent(-1)
	spans.measureAllocs = "envirotrack.AttachContextAll"
	err := build()
	spans.measureAllocs = ""
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gc)
	return setupCost{
		newS:        spans.total("envirotrack.New").Seconds(),
		attachS:     spans.total("envirotrack.AttachContextAll").Seconds(),
		allocs:      float64(m1.Mallocs - m0.Mallocs),
		attachBytes: float64(spans.allocBytes),
	}, err
}

func (in layerInputs) owner(o simtime.Owner) (events, nanos float64) {
	for i, st := range in.after.owners {
		if st.Owner == o {
			return float64(st.Events - in.before.owners[i].Events), float64(st.WallNanos - in.before.owners[i].WallNanos)
		}
	}
	return 0, 0
}

func (in layerInputs) count(t obs.EventType) float64 {
	return float64(in.after.events[t] - in.before.events[t])
}

// perLayer computes every per-layer metric.
func perLayer(in layerInputs) result {
	var res result
	per := func(x float64) float64 { return x / in.simS }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	s := in.sink
	_, senseNs := in.owner(simtime.OwnerSense)
	res.set("sensor.wall_ns_per_sim_s", "ns/sim_s", per(senseNs))
	res.set("sensor.ns_per_mote_sample", "ns", ratio(senseNs, in.moteSamples))
	res.set("sensor.near_target_share", "ratio", in.nearShare)

	_, radioNs := in.owner(simtime.OwnerRadio)
	rx, lost := sum(s.received), sum(s.lost)
	res.set("radio.wall_ns_per_sim_s", "ns/sim_s", per(radioNs))
	res.set("radio.frames_per_sim_s", "1/sim_s", per(sum(s.sent)))
	res.set("radio.delivery_ratio", "ratio", ratio(rx, rx+lost))
	res.set("radio.collision_share", "ratio", ratio(sum(s.collision), rx+lost))
	res.set("radio.link_util", "ratio", per(sum(s.bits))/50_000)

	_, moteNs := in.owner(simtime.OwnerMote)
	res.set("mote.wall_ns_per_sim_s", "ns/sim_s", per(moteNs))
	res.set("mote.overload_drops_per_sim_s", "1/sim_s", per(in.count(obs.EvCPUOverload)))

	_, groupNs := in.owner(simtime.OwnerGroup)
	hbRx, hbLost := float64(s.received[trace.KindHeartbeat]), float64(s.lost[trace.KindHeartbeat])
	res.set("group.wall_ns_per_sim_s", "ns/sim_s", per(groupNs))
	res.set("group.hb_frames_per_sim_s", "1/sim_s", per(float64(s.sent[trace.KindHeartbeat])))
	res.set("group.hb_loss", "ratio", ratio(hbLost, hbRx+hbLost))

	res.set("track.trace_frames_per_sim_s", "1/sim_s", per(float64(s.sent[trace.KindTrace])))

	res.set("directory.frames_per_sim_s", "1/sim_s", per(float64(s.sent[trace.KindDirectory])))
	res.set("directory.answer_sim_s", "sim_s", in.answerSimS)

	res.set("transport.frames_per_sim_s", "1/sim_s", per(float64(s.sent[trace.KindTransport])))
	res.set("transport.reply_sim_s", "sim_s", in.replySimS)
	res.set("transport.reply_pct", "%", in.replyPct)
	res.set("routing.report_frames_per_sim_s", "1/sim_s", per(float64(s.sent[trace.KindReport])))
	res.set("routing.report_delivery_pct", "%", in.reportDeliveryPct)

	_, appNs := in.owner(simtime.OwnerApp)
	res.set("core.wall_ns_per_sim_s", "ns/sim_s", per(appNs))

	var events, nanos float64
	for i, st := range in.after.owners {
		events += float64(st.Events - in.before.owners[i].Events)
		nanos += float64(st.WallNanos - in.before.owners[i].WallNanos)
	}
	res.set("simtime.events_per_sim_s", "1/sim_s", per(events))
	res.set("simtime.ns_per_event", "ns", ratio(nanos, events))
	res.set("simtime.unattributed_ns_per_sim_s", "ns/sim_s", per(in.runWallS*1e9-nanos))

	res.set("setup.new_s", "s", in.setup.newS)
	res.set("setup.attach_s", "s", in.setup.attachS)
	res.set("setup.allocs_per_mote", "1/mote", in.setup.allocs/in.motes)
	res.set("setup.attach_bytes_per_mote", "B/mote", in.setup.attachBytes/in.motes)

	res.set("runtime.allocs_per_sim_s", "1/sim_s", per(in.ref.allocs))
	res.set("runtime.gc_pause_ns_per_sim_s", "ns/sim_s", per(in.ref.pause))

	var obsEvents float64
	for t, n := range in.after.events {
		obsEvents += float64(n - in.before.events[t])
	}
	res.set("obs.events_per_sim_s", "1/sim_s", per(obsEvents))
	res.set("obs.trace_overhead_pct", "%", 100*(in.wallS/in.ref.wallS-1))
	return res
}

// nearShare is the share of motes within some target's signature radius.
func nearShare(net *envirotrack.Network, targets []*envirotrack.Target, at time.Duration) float64 {
	ids := net.Nodes()
	near := 0
	for _, id := range ids {
		nd, _ := net.Node(id)
		for _, t := range targets {
			if t.Active(at) && nd.Pos().Dist(t.PositionAt(at)) <= t.SignatureRadius {
				near++
				break
			}
		}
	}
	return float64(near) / float64(len(ids))
}

// traceField is the traced run of a field workload: p.tracedOps ops
// after warm-up, first untraced and then traced.
func traceField(cfg config) (result, error) {
	p := fieldParamsFor(cfg)
	paths := fieldPaths(p, cfg.seed)

	ref, err := buildField(cfg, p, paths, nil)
	if err != nil {
		return result{}, err
	}
	if err := ref.net.Run(p.warmup); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	u := measureUntraced(func() { runOps(ref, p.tracedOps) })

	to := newTraceObs()
	var b *fieldNet
	setup, err := traceSetup(to.spans, func() error {
		var err error
		b, err = buildField(cfg, p, paths, to.spans,
			envirotrack.WithSelfProfile(to.profile), envirotrack.WithEventBus(envirotrack.NewEventBus(to.sink)))
		return err
	})
	if err != nil {
		return result{}, err
	}
	if err := b.run(p.warmup); err != nil {
		return result{}, err
	}
	b.reset()
	to.sink.resetFrames()
	before := snapshot(to.profile, to.sink)
	senseBefore := senseEvents(to.profile)
	runBefore := to.spans.total("Network.Run")
	start := b.net.Now()
	var share, wall float64
	var failed int
	var firstErr error
	for i := 0; i < p.tracedOps; i++ {
		t0 := time.Now()
		_, err := b.op()
		wall += time.Since(t0).Seconds()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("op %d: %w", i+1, err)
			}
		}
		share += nearShare(b.net, b.targets, b.net.Now())
	}
	in := layerInputs{
		simS:     (b.net.Now() - start).Seconds(),
		wallS:    wall,
		runWallS: (to.spans.total("Network.Run") - runBefore).Seconds(),
		before:   before, after: snapshot(to.profile, to.sink),
		sink:        to.sink,
		ref:         u,
		motes:       float64(p.cols*p.rows + 1),
		moteSamples: float64((senseEvents(to.profile) - senseBefore) * uint64(p.cols*p.rows)),
		nearShare:   share / float64(p.tracedOps),
		setup:       setup,
	}
	b.load.layerFigures(&in)
	res := perLayer(in)
	res.Attempted, res.Failed, res.Correct, res.firstErr = p.tracedOps, failed, failed == 0, firstErr
	return res, to.spans.write(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// runOps runs n ops for the untraced reference. Their failures are not
// counted: the traced run repeats the same ops and accounts for them.
func runOps(b *fieldNet, n int) {
	for i := 0; i < n; i++ {
		_, _ = b.op()
	}
}

// traceSweep is the traced run of stress-sweep: one whole cycle of ops,
// first untraced and then traced through eval's package-level hooks.
func traceSweep(cfg config) (result, error) {
	ops := sweepGrid(cfg)
	var ref sweepTally
	u := measureUntraced(func() {
		for _, op := range ops {
			_, _ = ref.runOp(cfg, op, nil) // counted in the traced run
		}
	})

	to := newTraceObs()
	setup, err := traceSetup(to.spans, func() error {
		_, err := buildOp(ops[0], to.spans)
		return err
	})
	if err != nil {
		return result{}, err
	}

	eval.SetSelfProfile(to.profile)
	eval.SetEventSink(to.sink)
	defer eval.SetSelfProfile(nil)
	defer eval.SetEventSink(nil)
	before := snapshot(to.profile, to.sink)
	t := sweepTally{profile: to.profile}
	var failed int
	var firstErr error
	var share, shareN, wall float64
	for i, op := range ops {
		t0 := time.Now()
		_, err := t.runOp(cfg, op, to.spans)
		wall += time.Since(t0).Seconds()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("op %d: %w", i+1, err)
			}
		}
		for _, sc := range op {
			share += stripNearShare(sc)
			shareN++
		}
	}
	in := layerInputs{
		simS:     t.simS,
		wallS:    wall,
		runWallS: to.spans.total("eval.Run").Seconds(),
		before:   before, after: snapshot(to.profile, to.sink),
		sink: to.sink, ref: u, motes: float64(opMotes(ops[0])), moteSamples: t.moteSamples,
		nearShare: share / shareN, setup: setup,
	}
	res := perLayer(in)
	res.Attempted, res.Failed, res.Correct, res.firstErr = len(ops), failed, failed == 0, firstErr
	return res, to.spans.write(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// stripNearShare is the share of a scenario's motes within the target's
// signature radius, averaged over its path at the sensing period: the
// target enters at (-SR, mid) and stops MarginHops short of the far end,
// as eval.Run drives it.
func stripNearShare(sc eval.Scenario) float64 {
	mid := float64(sc.Rows-1) / 2
	x0, x1 := -sc.SensingRadius, float64(sc.Cols-1)-sc.MarginHops
	var share float64
	steps := 0
	for x := x0; x <= x1; x += sc.SpeedHops / 10 {
		near := 0
		for r := 0; r < sc.Rows; r++ {
			for c := 0; c < sc.Cols; c++ {
				if envirotrack.Pt(float64(c), float64(r)).Dist(envirotrack.Pt(x, mid)) <= sc.SensingRadius {
					near++
				}
			}
		}
		share += float64(near) / float64(sc.Rows*sc.Cols)
		steps++
	}
	return share / float64(steps)
}
