package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repository root, which the
// driver reads and this test holds the program to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// miniature is a workload cut down to single rounds, for tests.
func miniature(spec workloadSpec) workloadSpec {
	spec.warm, spec.rounds, spec.traced = 0, 1, 1
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, what string, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json is not emitted", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v is not finite", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: emits %s, which BENCHMARK.json does not list", what, name)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs a one-round miniature of each
// workload, untraced and traced, and holds the names and units it emits to
// BENCHMARK.json: every end-to-end metric on every workload, and every
// per-layer metric from the traced run and the ladder together.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	ladder, err := runLadder()
	if err != nil {
		t.Fatal(err)
	}
	for i, full := range workloads {
		if b.Workloads[i].Name != full.name || b.Workloads[i].Why != full.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, full.name, full.why)
		}
		spec := miniature(full)
		e := &env{seed: 7}
		pass, err := runPass(spec, e, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pass.failed != 0 || pass.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", spec.name, pass.failed, pass.attempted)
		}
		got := endToEndMetrics([]passResult{pass}, nil)
		checkMetrics(t, spec.name, got, endToEnd)
		for name, m := range got {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", spec.name, name)
			}
		}

		traced, err := measureTraced(spec, 7, "")
		if err != nil {
			t.Fatal(err)
		}
		if !traced.Correct {
			t.Errorf("%s: traced run: %s", spec.name, traced.Mismatch)
		}
		for name, m := range ladder {
			traced.Metrics[name] = m
		}
		checkMetrics(t, spec.name+" traced", traced.Metrics, perLayer)
		if share := traced.Metrics["haocl.api_share_of_wall"].Value; share < 0.5 || share > 1.02 {
			t.Errorf("%s: API spans cover %.3f of the rounds' wall time", spec.name, share)
		}

		// The same seed repeats its digest (the traced run has just run
		// seed 7 twice more); another seed gives another.
		if traced.Digest != digest(pass.rows) {
			t.Errorf("%s: seed 7 does not repeat its digest", spec.name)
		}
		other, err := runPass(spec, &env{seed: 8}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if digest(other.rows) == digest(pass.rows) {
			t.Errorf("%s: seeds 7 and 8 have the same digest", spec.name)
		}
	}
}

// TestCorruptedMirrorFailsTheRun flips a byte of each workload's host
// mirror: the read that disagrees must be counted as failed and the run
// must come out incorrect, which is what makes main exit non-zero.
func TestCorruptedMirrorFailsTheRun(t *testing.T) {
	for _, full := range workloads {
		spec := miniature(full)
		pass, err := runPass(spec, &env{seed: 7, corruptMirror: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pass.failed == 0 {
			t.Errorf("%s: a corrupted mirror went unnoticed", spec.name)
		}
		res := newRunResult(spec, []passResult{pass}, 1)
		res.check(7, []passResult{pass})
		if res.Correct || res.Mismatch == "" {
			t.Errorf("%s: run with %d failed operations counts as correct", spec.name, res.Failed)
		}
	}
}

// TestExpectedRowsAreChecked holds seed 1 to the committed rows, and shows
// that a row that differs is named.
func TestExpectedRowsAreChecked(t *testing.T) {
	spec, _ := findWorkload("paper-figs")
	spec = miniature(spec)
	pass, err := runPass(spec, &env{seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := newRunResult(spec, []passResult{pass}, 1)
	res.check(1, []passResult{pass})
	if !res.Correct {
		t.Fatalf("seed 1 against expected/paper-figs.seed1.json: %s", res.Mismatch)
	}
	changed := pass
	changed.rows = append([]string(nil), pass.rows...)
	changed.rows[3] += " (changed)"
	res = newRunResult(spec, []passResult{changed}, 1)
	res.check(1, []passResult{changed})
	if res.Correct || !strings.Contains(res.Mismatch, "row 3") {
		t.Fatalf("a changed row was accepted, or not named: %q", res.Mismatch)
	}
}
