package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"envirotrack"
	"envirotrack/internal/eval"
)

// The stress-sweep grid: Figure 5/6 stress scenarios (24-column strip,
// CR 6, 8 ms mote CPU with a queue of 6, 5% loss, takeover-only leader
// recovery) over every heartbeat period and sensing radius, at several
// speeds, plus the Figure 4 / Table 1 handover cells at both hop settings
// and speeds. Unlike RunFigure5's bisection, the run count is fixed.
var (
	sweepHeartbeats = []float64{1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4}
	sweepRadii      = []float64{1, 2}
	sweepSpeeds     = []float64{0.5, 1, 2, 3} // hops per second
	fig4Cells       = []struct {
		hopsPast int
		kmh      float64
	}{{1, 33}, {1, 50}, {0, 33}, {0, 50}}
)

// sweepRotations is how many times the grid is run with the speeds
// rotated against the heartbeat periods; a cycle of ops is
// len(sweepSpeeds)*sweepRotations ops.
const sweepRotations = 2

// sweepOp is one closed-loop op of stress-sweep: every heartbeat period
// at every radius once, at speeds rotated so that each op carries each
// speed equally often, plus one Figure 4 cell. Ops are therefore of
// nearly equal cost.
type sweepOp []eval.Scenario

// sweepGrid generates a cycle of ops from the workload seed. Every op
// draws its own scenario seed from it: quality figures pooled over eight
// seeds vary less from one workload seed to the next than over two.
func sweepGrid(cfg config) []sweepOp {
	rng := rand.New(rand.NewSource(cfg.seed))
	hbs, radii, speeds := sweepHeartbeats, sweepRadii, sweepSpeeds
	if cfg.tiny {
		hbs, radii, speeds = hbs[4:5], radii[:1], speeds[3:]
	}
	var ops []sweepOp
	run := int64(0)
	for o := 0; o < len(speeds)*sweepRotations; o++ {
		seed := 1 + rng.Int63n(1<<30)
		var op sweepOp
		for h, hb := range hbs {
			for r, radius := range radii {
				run++
				sc := stressScenario(hb, radius, speeds[(h+r+o)%len(speeds)], seed)
				sc.Run = run
				op = append(op, sc)
			}
		}
		c := fig4Cells[o%len(fig4Cells)]
		run++
		sc := handoverScenario(c.kmh, c.hopsPast, seed)
		sc.Run = run
		op = append(op, sc)
		ops = append(ops, op)
	}
	return ops
}

// stressScenario is the Section 6.2 stress setup of Figures 5 and 6.
func stressScenario(hbSec, radius, speed float64, seed int64) eval.Scenario {
	return eval.Scenario{
		Cols: 24, Rows: int(2*radius) + 1,
		CommRadius:        6,
		SensingRadius:     radius,
		SpeedHops:         speed,
		Heartbeat:         time.Duration(hbSec * float64(time.Second)),
		HopsPast:          1,
		DisableRelinquish: true,
		ReportEvery:       5 * time.Second,
		Freshness:         2 * time.Second,
		CriticalMass:      1,
		LossProb:          0.05,
		CPUService:        8 * time.Millisecond,
		QueueCap:          6,
		MarginHops:        1,
		Seed:              seed,
	}
}

// handoverScenario is the Figure 4 / Table 1 corridor: CR barely above SR,
// 12% loss, handover by leadership changeover along the path.
func handoverScenario(kmh float64, hopsPast int, seed int64) eval.Scenario {
	return eval.Scenario{
		Cols: 16, Rows: 2,
		CommRadius:        2.0,
		SensingRadius:     1.5,
		SpeedHops:         eval.KmhToHops(kmh),
		Heartbeat:         time.Second,
		HopsPast:          hopsPast,
		DisableRelinquish: true,
		ReportEvery:       5 * time.Second,
		LossProb:          0.12,
		// eval.Run's defaults, spelled out for evalNetwork.
		Freshness:    time.Second,
		CriticalMass: 2,
		MarginHops:   0.5,
		Seed:         seed,
	}
}

// runSim is the simulated time eval.Run advances: the target's path plus
// the settling time it allows afterwards (5 heartbeats + 2s).
func runSim(res eval.RunResult) time.Duration {
	return res.Duration + 5*res.Scenario.Heartbeat + 2*time.Second
}

// sweepTally pools the outcomes of every run of a sweep.
type sweepTally struct {
	handoverOK, spawned int // strict handover successes; labels beyond the first
	trackErrSum         float64
	trackErrN           int
	simS                float64
	// profile, when set, is the self-profile every eval.Run reports to;
	// moteSamples then sums each run's sensing sweeps times its motes.
	profile     *envirotrack.SelfProfile
	moteSamples float64
}

func (t *sweepTally) add(res eval.RunResult) {
	t.handoverOK += res.Handover.Successful
	if res.Handover.Created > 1 {
		t.spawned += res.Handover.Created - 1
	}
	for _, p := range res.Track.Points {
		t.trackErrSum += p.Actual.Dist(p.Reported)
		t.trackErrN++
	}
	t.simS += runSim(res).Seconds()
}

// handoverPct is the pooled Figure 4 outcome: strict handover success.
func (t *sweepTally) handoverPct() float64 {
	if t.handoverOK+t.spawned == 0 {
		return 100
	}
	return 100 * float64(t.handoverOK) / float64(t.handoverOK+t.spawned)
}

// runOp runs one op's scenarios serially through eval.Run.
func (t *sweepTally) runOp(cfg config, op sweepOp, spans *spanLog) (float64, error) {
	before := t.simS
	var firstErr error
	for _, sc := range op {
		var senseBefore uint64
		if t.profile != nil {
			senseBefore = senseEvents(t.profile)
		}
		sp := spans.begin("eval.Run")
		res, err := eval.Run(sc)
		spans.end(sp)
		if t.profile != nil {
			t.moteSamples += float64((senseEvents(t.profile) - senseBefore) * uint64(sc.Cols*sc.Rows))
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("eval.Run seed %d hb %v: %w", sc.Seed, sc.Heartbeat, err)
			}
			continue
		}
		t.add(res)
	}
	if firstErr == nil && cfg.rejectOutputs {
		firstErr = errForcedCheck
	}
	return t.simS - before, firstErr
}

// evalNetwork builds sc's network as eval.Run does before it runs it:
// New with the scenario's options, AddTarget, AttachContextAll with the
// Figure 2 tracker reporting to the pursuer, and the pursuer's AddMote.
// eval has no entry point that builds without running, so this is a
// replica of eval.Run's construction through the same public calls in the
// same order: a change to the envirotrack calls moves its cost, a change
// to eval.Run's own code does not. sc must have every field eval.Run
// would default set.
func evalNetwork(sc eval.Scenario, spans *spanLog) (*envirotrack.Network, error) {
	mid := float64(sc.Rows-1) / 2
	traj, err := envirotrack.NewWaypoints([]envirotrack.Point{
		envirotrack.Pt(-sc.SensingRadius, mid),
		envirotrack.Pt(float64(sc.Cols-1)-sc.MarginHops, mid),
	}, sc.SpeedHops)
	if err != nil {
		return nil, err
	}
	opts := []envirotrack.Option{
		envirotrack.WithGrid(sc.Cols, sc.Rows),
		envirotrack.WithCommRadius(sc.CommRadius),
		envirotrack.WithSensing(envirotrack.VehicleSensing("vehicle")),
		envirotrack.WithSeed(sc.Seed),
		envirotrack.WithLossProb(sc.LossProb),
	}
	if sc.CPUService > 0 {
		opts = append(opts, envirotrack.WithMoteCPU(sc.CPUService, sc.QueueCap))
	}
	sp := spans.begin("envirotrack.New")
	net, err := envirotrack.New(opts...)
	spans.end(sp)
	if err != nil {
		return nil, fmt.Errorf("New: %w", err)
	}
	if err := net.InjectFaults(sc.Chaos); err != nil {
		return nil, err
	}
	sp = spans.begin("envirotrack.AddTarget")
	net.AddTarget(&envirotrack.Target{Name: "tank", Kind: "vehicle", Traj: traj, SignatureRadius: sc.SensingRadius})
	spans.end(sp)
	sp = spans.begin("envirotrack.AttachContextAll")
	err = net.AttachContextAll(evalTracker(sc))
	spans.end(sp)
	if err != nil {
		return nil, fmt.Errorf("AttachContextAll: %w", err)
	}
	sp = spans.begin("envirotrack.AddMote")
	pursuer, err := net.AddMote(eval.PursuerID, envirotrack.Pt(float64(sc.Cols-1), float64(sc.Rows)), nil)
	spans.end(sp)
	if err != nil {
		return nil, fmt.Errorf("AddMote: %w", err)
	}
	pursuer.OnMessage(func(envirotrack.NodeMessage) {})
	return net, nil
}

// evalTracker is the Figure 2 tracker eval.Run attaches.
func evalTracker(sc eval.Scenario) envirotrack.ContextType {
	return envirotrack.ContextType{
		Name:    "tracker",
		Backend: envirotrack.BackendLeader,
		Activation: func(rd envirotrack.Reading) bool {
			v, _ := rd.Value("magnetic_detect")
			return v > 0.5
		},
		Vars: []envirotrack.AggVar{{
			Name: "location", Func: envirotrack.Centroid, Input: envirotrack.PositionInput,
			Freshness: sc.Freshness, CriticalMass: sc.CriticalMass,
		}},
		Objects: []envirotrack.Object{{Name: "reporter", Methods: []envirotrack.Method{{
			Name: "report_function", Period: sc.ReportEvery,
			Body: func(ctx *envirotrack.Ctx, _ envirotrack.Trigger) {
				if loc, ok := ctx.ReadPosition("location"); ok {
					ctx.SendNode(eval.PursuerID, eval.TrackReport{Label: ctx.Label(), Loc: loc})
				}
			},
		}}}},
		Group: envirotrack.GroupConfig{HeartbeatPeriod: sc.Heartbeat, HopsPast: sc.HopsPast, DisableRelinquish: sc.DisableRelinquish},
	}
}

// buildOp builds the networks of every scenario of op, as the op's
// eval.Run calls do.
func buildOp(op sweepOp, spans *spanLog) ([]*envirotrack.Network, error) {
	nets := make([]*envirotrack.Network, 0, len(op))
	for _, sc := range op {
		net, err := evalNetwork(sc, spans)
		if err != nil {
			return nil, err
		}
		nets = append(nets, net)
	}
	return nets, nil
}

// opMotes is the number of motes of op's networks, pursuers included.
func opMotes(op sweepOp) int {
	motes := 0
	for _, sc := range op {
		motes += sc.Cols*sc.Rows + 1
	}
	return motes
}

// sweepSetupBuilds is how many times the first op's networks are built,
// spread through the timed phase; setup_s is the lower quartile of their
// normalized times.
const sweepSetupBuilds = 101

// measureSweep is the untraced end-to-end run of stress-sweep. setup_s
// and live_bytes_per_mote are those of building the first op's networks.
func measureSweep(cfg config) (result, error) {
	ops := sweepGrid(cfg)
	var nets []*envirotrack.Network
	live, err := liveBytes(func() (err error) {
		nets, err = buildOp(ops[0], nil)
		return err
	})
	if err != nil {
		return result{}, err
	}
	runtime.KeepAlive(nets) // live until measured
	builds := sweepSetupBuilds
	if cfg.tiny {
		builds = 3
	}
	setup := newSetupTimer(cfg.seconds, builds, func() error {
		_, err := buildOp(ops[0], nil)
		return err
	})
	var t sweepTally
	next := 0
	clock := newHostClock()
	l := closedLoop(cfg.seconds, len(ops), clock, func() (float64, error) {
		op := ops[next%len(ops)]
		next++
		return t.runOp(cfg, op, nil)
	}, setup.between)
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
	res.set("live_bytes_per_mote", "B", float64(live)/float64(opMotes(ops[0])))
	res.set("op_norm_s.p90", "s", percentile(l.opNorm(clock), 0.9))
	res.set("track_err_hops", "hops", mean(t.trackErrSum, t.trackErrN))
	res.set("handover_pct", "%", t.handoverPct())
	return res, nil
}
