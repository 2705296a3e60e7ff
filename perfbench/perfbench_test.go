package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"envirotrack"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at tiny size and returns the decoded last
// output line.
func runTiny(t *testing.T, cfg config) map[string]json.RawMessage {
	t.Helper()
	w := workloads[cfg.workload]
	cfg.tiny, cfg.seed, cfg.seconds, cfg.spanDir = true, 3, 0.05, t.TempDir()
	run := w.measure
	if cfg.trace {
		run = w.traced
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	var out, errOut bytes.Buffer
	if code := emit(&out, &errOut, hostManifest(cfg), res); code != 0 {
		t.Fatalf("emit exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return last
}

func TestEveryWorkloadPrintsEveryMetricWithItsUnit(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			last := runTiny(t, config{workload: wl.Name, trace: trace})
			if len(last) != 4 {
				t.Errorf("%s: result keys %v, want correct, attempted, failed, metrics", wl.Name, keys(last))
			}
			var correct bool
			var attempted, failed int
			var metrics map[string]metric
			for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
				if err := json.Unmarshal(last[k], dst); err != nil {
					t.Fatalf("%s: key %s: %v", wl.Name, k, err)
				}
			}
			if !correct || failed != 0 || attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.Name, trace, correct, failed, attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s unit %q, want %q", wl.Name, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
			}
		}
	}
}

func TestForcedCheckFailureCountsAsFailedOp(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			last := runTiny(t, config{workload: name, trace: trace, rejectOutputs: true})
			var correct bool
			var attempted, failed int
			_ = json.Unmarshal(last["correct"], &correct)
			_ = json.Unmarshal(last["attempted"], &attempted)
			_ = json.Unmarshal(last["failed"], &failed)
			if correct || attempted < 1 || failed != attempted {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d, want every op failed",
					name, trace, correct, failed, attempted)
			}
		}
	}
}

func TestBadArgumentsExitNonZeroWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "field10k", "--trace", "2"},
		{"--workload", "field10k", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

func TestInputsRepeatForASeed(t *testing.T) {
	cfg := config{workload: "field10k", seed: 7}
	p := fieldParamsFor(cfg)
	a, b := fieldPaths(p, 7), fieldPaths(p, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("target %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := fieldPaths(p, 8); c[0] == a[0] {
		t.Error("seeds 7 and 8 gave the same first target")
	}
	ga, gb := sweepGrid(config{seed: 7}), sweepGrid(config{seed: 7})
	if ga[0][0].Seed != gb[0][0].Seed || len(ga) != len(gb) {
		t.Error("sweep grid differs for one seed")
	}
}

func TestBounceStaysInItsBox(t *testing.T) {
	b := bounce{lo: envirotrack.Pt(2, 3), hi: envirotrack.Pt(7, 5), start: envirotrack.Pt(4, 4), vel: envirotrack.Vec(1.3, -0.7)}
	for s := 0; s < 100000; s += 37 {
		p := b.PositionAt(time.Duration(s) * time.Second)
		if p.X < 2 || p.X > 7 || p.Y < 3 || p.Y > 5 {
			t.Fatalf("t=%ds: %v outside the box", s, p)
		}
	}
}

func TestHostClockNormalizesByTheNearestProbes(t *testing.T) {
	c := &hostClock{start: time.Unix(0, 0)}
	// The host runs at nominal speed until 10 s, then at half speed; one
	// probe, at 3 s, was hit by an interruption.
	for at := 0.5; at < 20; at++ {
		wall := probeNominalS
		if at > 10 {
			wall *= 2
		}
		if at == 3.5 {
			wall *= 5
		}
		c.probes = append(c.probes, probeSample{at: at, wall: wall})
	}
	at := func(s float64) time.Time { return c.start.Add(time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct{ start, wall, want float64 }{
		{1, 0.5, 0.5},   // nominal speed
		{3.2, 0.5, 0.5}, // the outlier is outvoted
		{14, 0.5, 0.25}, // half speed: half the normalized time
		{19.8, 1, 0.5},  // past the last probe
	} {
		if got := c.norm(at(tc.start), tc.wall); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("norm(%v s, %v s) = %v, want %v", tc.start, tc.wall, got, tc.want)
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
