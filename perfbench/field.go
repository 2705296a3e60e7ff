package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"envirotrack"
)

// baseID is the base station: the pursuer that receives tracking reports
// on field10k, the client that queries the directory on dense-passive-dir.
const baseID envirotrack.NodeID = 100_000

// fieldParams sizes one of the two field workloads.
type fieldParams struct {
	cols, rows int
	targets    int
	speed      float64 // target speed, hops per second
	sigRadius  float64
	backend    string
	// cells confines every target to its own cell of a square tiling, so
	// labels stay distinct.
	cells bool
	// directory turns on the directory service.
	directory bool
	basePos   envirotrack.Point
	// load makes the workload's base-station client.
	load  func(*fieldNet) fieldLoad
	opSim time.Duration
	// warmup is the untimed run after setup: labels form (and register
	// with the directory) and pools fill.
	warmup time.Duration
	// heartbeat is the group heartbeat period; the passive backend gossips
	// its traces at this period.
	heartbeat time.Duration
	// setupBuilds is how many builds are timed, spread through the timed
	// phase; setup_s is the lower quartile of their normalized times.
	setupBuilds int
	// tracedOps is the fixed length, in ops, of the traced run.
	tracedOps int
}

func fieldParamsFor(cfg config) fieldParams {
	p := fieldParams{
		cols: 100, rows: 100, targets: 4, speed: 1, sigRadius: 1.6,
		backend: envirotrack.BackendLeader, load: newReportLoad,
		opSim: time.Second, warmup: 3 * time.Second, heartbeat: 250 * time.Millisecond,
		setupBuilds: 61, tracedOps: 120,
	}
	if cfg.workload == "dense-passive-dir" {
		p = fieldParams{
			cols: 40, rows: 40, targets: 16, speed: 0.5, sigRadius: 1.6,
			backend: envirotrack.BackendPassive, cells: true, directory: true, load: newDirectoryLoad,
			opSim: 3 * time.Second, warmup: 10 * time.Second, heartbeat: time.Second,
			setupBuilds: 101, tracedOps: 60,
		}
	}
	if cfg.tiny {
		p.cols, p.rows, p.setupBuilds, p.tracedOps = 16, 16, 3, 4
		if p.targets > 4 {
			p.targets = 4
		}
	}
	p.basePos = envirotrack.Pt(float64(p.cols)/2, float64(p.rows))
	if p.cells {
		// The tiling's central corner: no target comes within 2*sigRadius
		// of it, and every label is at most half a field away.
		p.basePos = envirotrack.Pt(float64(p.cols)/2, float64(p.rows)/2)
	}
	return p
}

// bounce is a target moving at constant velocity inside a box and
// reflecting off its walls: it never leaves the field and never stops,
// and its position costs the same at every time. (A Waypoints path of the
// same length would cost more per sample the later the time, since
// Waypoints.PositionAt scans its legs from the first; that would make
// op cost drift with simulated time.)
type bounce struct {
	lo, hi envirotrack.Point
	start  envirotrack.Point
	vel    envirotrack.Vector // hops per second
}

// PositionAt implements envirotrack.Trajectory.
func (b bounce) PositionAt(t time.Duration) envirotrack.Point {
	s := t.Seconds()
	return envirotrack.Pt(reflect(b.start.X+b.vel.DX*s, b.lo.X, b.hi.X),
		reflect(b.start.Y+b.vel.DY*s, b.lo.Y, b.hi.Y))
}

// Done implements envirotrack.Trajectory.
func (bounce) Done(time.Duration) bool { return false }

// reflect folds x into [lo, hi] as a ball bouncing between two walls.
func reflect(x, lo, hi float64) float64 {
	w := hi - lo
	m := x - lo
	m -= 2 * w * math.Floor(m/(2*w))
	if m > w {
		m = 2*w - m
	}
	return lo + m
}

// fieldPaths generates each target's motion from the seed. Without cells
// every target crosses the whole field, bouncing off its edges; with
// cells each zig-zags inside its own cell, far enough from the cell edge
// that no two targets' sensing neighbourhoods touch.
func fieldPaths(p fieldParams, seed int64) []bounce {
	rng := rand.New(rand.NewSource(seed))
	paths := make([]bounce, p.targets)
	for i := range paths {
		lo := envirotrack.Pt(2, 2)
		hi := envirotrack.Pt(float64(p.cols)-3, float64(p.rows)-3)
		if p.cells {
			side := int(math.Ceil(math.Sqrt(float64(p.targets))))
			cw, ch := float64(p.cols)/float64(side), float64(p.rows)/float64(side)
			// Targets in neighbouring cells stay 2*sigRadius + CR apart.
			m := (2*p.sigRadius + commRadius) / 2
			x0, y0 := float64(i%side)*cw, float64(i/side)*ch
			lo, hi = envirotrack.Pt(x0+m, y0+m), envirotrack.Pt(x0+cw-m, y0+ch-m)
		}
		// Headings stay 15-75 degrees off the axes, so every target
		// sweeps its whole box rather than shuttling along one line.
		angle := (15 + 60*rng.Float64() + 90*float64(rng.Intn(4))) * math.Pi / 180
		paths[i] = bounce{
			lo: lo, hi: hi,
			start: envirotrack.Pt(lo.X+rng.Float64()*(hi.X-lo.X), lo.Y+rng.Float64()*(hi.Y-lo.Y)),
			vel:   envirotrack.Vec(p.speed*math.Cos(angle), p.speed*math.Sin(angle)),
		}
	}
	return paths
}

const commRadius = 2.5

// fieldLoad is what a field workload's base station does: the method of
// the tracker object it talks to, its receive handler, its closed-loop op
// with the op's output check, and the figures it reports.
type fieldLoad interface {
	method() envirotrack.Method
	onMessage(envirotrack.NodeMessage)
	op() (simS float64, err error)
	// reset starts the load's accounting afresh after warm-up.
	reset()
	layerFigures(*layerInputs)
}

// fieldNet is one built field network, its base station and the tracking
// error of the positions the base station learns.
type fieldNet struct {
	p       fieldParams
	cfg     config
	net     *envirotrack.Network
	base    *envirotrack.Node
	targets []*envirotrack.Target
	spans   *spanLog
	load    fieldLoad

	errSum float64 // summed distance of learnt positions to the nearest target
	errN   int
}

// buildField runs the timed setup: New, AttachContextAll, AddTarget for
// every target, and the base station.
func buildField(cfg config, p fieldParams, paths []bounce, spans *spanLog, extra ...envirotrack.Option) (*fieldNet, error) {
	f := &fieldNet{p: p, cfg: cfg, spans: spans}
	f.load = p.load(f)
	opts := append([]envirotrack.Option{
		envirotrack.WithGrid(p.cols, p.rows),
		envirotrack.WithCommRadius(commRadius),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithSeed(cfg.seed),
		envirotrack.WithBackend(p.backend),
	}, extra...)
	if p.directory {
		opts = append(opts, envirotrack.WithDirectory())
	}
	return f, f.build(opts, paths)
}

func (f *fieldNet) build(opts []envirotrack.Option, paths []bounce) error {
	sp := f.spans.begin("envirotrack.New")
	net, err := envirotrack.New(opts...)
	f.spans.end(sp)
	if err != nil {
		return fmt.Errorf("New: %w", err)
	}
	f.net = net
	sp = f.spans.begin("envirotrack.AttachContextAll")
	err = net.AttachContextAll(f.trackerContext())
	f.spans.end(sp)
	if err != nil {
		return fmt.Errorf("AttachContextAll: %w", err)
	}
	sp = f.spans.begin("envirotrack.AddTarget")
	for i, traj := range paths {
		t := &envirotrack.Target{Name: fmt.Sprintf("t%d", i), Kind: "vehicle", Traj: traj, SignatureRadius: f.p.sigRadius}
		f.targets = append(f.targets, t)
		net.AddTarget(t)
	}
	f.spans.end(sp)
	sp = f.spans.begin("envirotrack.AddMote")
	f.base, err = net.AddMote(baseID, f.p.basePos, nil)
	f.spans.end(sp)
	if err != nil {
		return fmt.Errorf("AddMote: %w", err)
	}
	f.base.OnMessage(f.load.onMessage)
	return nil
}

// trackerContext is the Figure 2 tracker with the load's method.
func (f *fieldNet) trackerContext() envirotrack.ContextType {
	return envirotrack.ContextType{
		Name: "tracker",
		Activation: func(rd envirotrack.Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Vars: []envirotrack.AggVar{{
			Name:         "location",
			Func:         envirotrack.Centroid,
			Input:        envirotrack.PositionInput,
			Freshness:    time.Second,
			CriticalMass: 2,
		}},
		Objects: []envirotrack.Object{{Name: "reporter", Methods: []envirotrack.Method{f.load.method()}}},
		Group:   envirotrack.GroupConfig{HeartbeatPeriod: f.p.heartbeat, HopsPast: 1},
	}
}

// op is one closed-loop op: the load's op, then the forced check failure
// the package's test asks for.
func (f *fieldNet) op() (float64, error) {
	sim, err := f.load.op()
	if err == nil && f.cfg.rejectOutputs {
		err = errForcedCheck
	}
	return sim, err
}

func (f *fieldNet) run(d time.Duration) error {
	sp := f.spans.begin("Network.Run")
	defer f.spans.end(sp)
	if err := f.net.Run(d); err != nil {
		return fmt.Errorf("Run: %w", err)
	}
	return nil
}

// nearestTarget adds the distance from loc to the closest target at time
// at to the tracking error.
func (f *fieldNet) nearestTarget(loc envirotrack.Point, at time.Duration) {
	best := math.Inf(1)
	for _, t := range f.targets {
		best = math.Min(best, t.PositionAt(at).Dist(loc))
	}
	f.errSum += best
	f.errN++
}

// reset starts the output accounting afresh after warm-up.
func (f *fieldNet) reset() {
	f.errSum, f.errN = 0, 0
	f.load.reset()
}

// handoverPct is strict handover success over the run so far: every label
// created beyond one per target counts as a failed handover (the Figure 4
// outcome, generalized to several targets).
func (f *fieldNet) handoverPct() float64 {
	h := f.net.Ledger().Summarize("tracker")
	failed := h.Created - f.p.targets
	if failed < 0 {
		failed = 0
	}
	if h.Successful+failed == 0 {
		return 100
	}
	return 100 * float64(h.Successful) / float64(h.Successful+failed)
}

// pct is 100*n/of, or 0 when of is 0.
func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// report is what a tracking object sends the base station: a periodic
// position report on field10k, a reply to request ID on dense-passive-dir.
type report struct {
	ID  int
	Loc envirotrack.Point
}

// reportLoad is field10k's base station: a pursuer to which every
// tracking object reports its label's position every reportPeriod.
type reportLoad struct {
	f              *fieldNet
	sent, received int
	lastSeen       []time.Duration // per target: last report attributed to it
}

func newReportLoad(f *fieldNet) fieldLoad {
	return &reportLoad{f: f, lastSeen: make([]time.Duration, f.p.targets)}
}

// reportPeriod is the tracking object's TIMER period: short enough that a
// leader's tenure at the targets' speed spans several.
const reportPeriod = 500 * time.Millisecond

func (r *reportLoad) method() envirotrack.Method {
	return envirotrack.Method{
		Name:   "report_function",
		Period: reportPeriod,
		Body: func(ctx *envirotrack.Ctx, _ envirotrack.Trigger) {
			if loc, ok := ctx.ReadPosition("location"); ok {
				r.sent++
				ctx.SendNode(baseID, report{Loc: loc})
			}
		},
	}
}

func (r *reportLoad) onMessage(nm envirotrack.NodeMessage) {
	rep, ok := nm.Payload.(report)
	if !ok {
		return
	}
	now := r.f.base.Now()
	r.received++
	r.f.nearestTarget(rep.Loc, now)
	// Where two targets cross, one label may cover both: the report counts
	// for every target near it.
	for i, t := range r.f.targets {
		if t.PositionAt(now).Dist(rep.Loc) <= attributeHops {
			r.lastSeen[i] = now
		}
	}
}

// attributeHops is how close a report must lie to a target to count as a
// report about it.
const attributeHops = 4

// staleReport is the longest a target may go unreported before an op
// fails its check: 20 report periods. Gaps of up to 6s do occur where a
// label has come to span two distant targets after a crossing and its
// leadership churns between them.
const staleReport = 10 * time.Second

// op advances the network by opSim; every target must have been reported
// within staleReport.
func (r *reportLoad) op() (float64, error) {
	sim := r.f.p.opSim.Seconds()
	if err := r.f.run(r.f.p.opSim); err != nil {
		return sim, err
	}
	now := r.f.net.Now()
	for i, seen := range r.lastSeen {
		if now-seen > staleReport {
			return sim, fmt.Errorf("target %d unreported since %v (now %v)", i, seen, now)
		}
	}
	return sim, nil
}

func (r *reportLoad) reset() { r.sent, r.received = 0, 0 }

// layerFigures gives the share of sent reports that reached the pursuer.
func (r *reportLoad) layerFigures(in *layerInputs) {
	in.reportDeliveryPct = pct(r.received, r.sent)
}

// directoryLoad is dense-passive-dir's base station: a client that asks
// the directory for every tracker label and sends label-addressed
// datagrams to the listed labels, whose tracking objects reply.
type directoryLoad struct {
	f *fieldNet
	// Request IDs below firstID were sent before the accounting started.
	nextID, firstID   int
	requests, replies int
	sentAt            map[int]time.Duration // request ID -> send time
	answered          map[int]bool
	replySimSum       float64
	queryAt           time.Duration
	queryEntries      int // entries in the answer to the current op's query; -1 pending
	answerSimSum      float64
	answers           int
}

func newDirectoryLoad(f *fieldNet) fieldLoad {
	return &directoryLoad{f: f, sentAt: map[int]time.Duration{}, answered: map[int]bool{}}
}

// replyPort is the tracking object's message-triggered method endpoint.
const replyPort envirotrack.PortID = 1

// method answers a request with the label's position.
func (d *directoryLoad) method() envirotrack.Method {
	return envirotrack.Method{
		Name: "locate",
		Port: replyPort,
		Body: func(ctx *envirotrack.Ctx, trig envirotrack.Trigger) {
			id, ok := trig.Msg.Payload.(int)
			if !ok {
				return
			}
			if loc, ok := ctx.ReadPosition("location"); ok {
				ctx.SendNode(baseID, report{ID: id, Loc: loc})
			}
		},
	}
}

func (d *directoryLoad) onMessage(nm envirotrack.NodeMessage) {
	r, ok := nm.Payload.(report)
	if !ok || r.ID < d.firstID || d.answered[r.ID] {
		return
	}
	d.answered[r.ID] = true
	d.replySimSum += (d.f.base.Now() - d.sentAt[r.ID]).Seconds()
	delete(d.sentAt, r.ID)
	d.replies++
}

// op queries the directory (and, on the answer, sends datagrams to up to
// sendsPerOp listed labels), then advances the network by opSim; the
// answer must list at least half the targets.
func (d *directoryLoad) op() (float64, error) {
	d.query()
	sim := d.f.p.opSim
	err := d.f.run(sim)
	// A query whose first attempt was lost is answered by a retransmission
	// after the directory's 2s query timeout, or by the base station's own
	// next query: the op waits for it.
	for err == nil && d.queryEntries < 0 && sim < d.f.p.opSim+maxAnswerWait {
		err = d.f.run(time.Second)
		sim += time.Second
	}
	if err != nil {
		return sim.Seconds(), err
	}
	if 2*d.queryEntries < d.f.p.targets {
		return sim.Seconds(), fmt.Errorf("directory listed %d of %d targets", d.queryEntries, d.f.p.targets)
	}
	return sim.Seconds(), nil
}

// maxAnswerWait bounds how long an op waits past opSim for its directory
// answer: 1+queryRetries queries with every retransmission of the default
// policy (3 attempts, 2s apart).
const maxAnswerWait = (1+queryRetries)*6*time.Second + 2*time.Second

// query asks the directory for every tracker label. When every attempt
// of the directory's own retransmission policy is lost (the answer is
// nil), the base station asks again, up to queryRetries times, as a
// client of a lossy multi-hop network would: the directory node can sit
// in a target's gossip neighbourhood, where frames collide for seconds.
func (d *directoryLoad) query() {
	d.queryAt = d.f.net.Now()
	d.queryEntries = -1
	d.ask(d.queryAt, queryRetries)
}

const queryRetries = 2

func (d *directoryLoad) ask(asked time.Duration, retries int) {
	f := d.f
	sp := f.spans.begin("Node.QueryDirectory")
	defer f.spans.end(sp)
	f.base.QueryDirectory("tracker", func(es []envirotrack.DirectoryEntry) {
		if asked != d.queryAt {
			return // a late answer to an earlier op's query
		}
		if es == nil && retries > 0 {
			d.ask(asked, retries-1)
			return
		}
		now := f.base.Now()
		d.queryEntries = len(es)
		d.answerSimSum += (now - asked).Seconds()
		d.answers++
		for _, e := range es {
			f.nearestTarget(e.Location, now)
		}
		for k := 0; k < min(len(es), sendsPerOp); k++ {
			// Rotate through the listing so every label is asked in turn.
			e := es[(d.nextID+k)%len(es)]
			id := d.nextID
			d.nextID++
			d.requests++
			d.sentAt[id] = now
			sp := f.spans.begin("Node.Send")
			f.base.Send(envirotrack.Datagram{SrcLabel: "base/1", DstLabel: e.Label, DstPort: replyPort, Payload: id})
			f.spans.end(sp)
		}
	})
}

// sendsPerOp bounds the datagrams the base station sends per op: each
// label its transport has not seen yet costs a directory lookup of its
// own, and more concurrent lookups crowd out the op's own query.
const sendsPerOp = 4

func (d *directoryLoad) reset() {
	d.requests, d.replies, d.replySimSum, d.answerSimSum, d.answers = 0, 0, 0, 0, 0
	d.firstID = d.nextID
}

// layerFigures gives the directory's answer time and the share and
// latency of answered requests.
func (d *directoryLoad) layerFigures(in *layerInputs) {
	in.answerSimS = mean(d.answerSimSum, d.answers)
	in.replySimS = mean(d.replySimSum, d.replies)
	in.replyPct = pct(d.replies, d.requests)
}

// measureField is the untraced end-to-end run of a field workload. The
// network the ops run on is built first; its live heap gives
// live_bytes_per_mote.
func measureField(cfg config) (result, error) {
	p := fieldParamsFor(cfg)
	paths := fieldPaths(p, cfg.seed)
	var f *fieldNet
	live, err := liveBytes(func() (err error) {
		f, err = buildField(cfg, p, paths, nil)
		return err
	})
	if err != nil {
		return result{}, err
	}
	if err := f.net.Run(p.warmup); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	f.reset()
	setup := newSetupTimer(cfg.seconds, p.setupBuilds, func() error {
		_, err := buildField(cfg, p, paths, nil)
		return err
	})
	clock := newHostClock()
	l := closedLoop(cfg.seconds, 1, clock, f.op, setup.between)
	setupS, err := setup.finish(clock)
	if err != nil {
		return result{}, err
	}
	var res result
	res.Attempted, res.Failed = l.attempted, l.failed
	res.Correct = l.failed == 0
	res.firstErr = l.firstErr
	res.hostNote = hostNote(l, clock)
	res.set("sim_s_per_norm_s", "sim_s/s", l.simPerNorm(clock))
	res.set("setup_s", "s", setupS)
	res.set("live_bytes_per_mote", "B", float64(live)/float64(p.cols*p.rows+1))
	res.set("op_norm_s.p90", "s", percentile(l.opNorm(clock), 0.9))
	res.set("track_err_hops", "hops", mean(f.errSum, f.errN))
	res.set("handover_pct", "%", f.handoverPct())
	return res, nil
}
