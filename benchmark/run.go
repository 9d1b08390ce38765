package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// setupReps is how many set-ups a run times beside its passes' own, so
// that setup_s is a median of some thirty samples rather than of two or three.
const setupReps = 25

//go:embed expected/*.json
var expectedFS embed.FS

// expectedRows is the committed digest of one workload at seed 1: the
// rows of one pass, every read's checksum and every round's session
// accounting. On paper-figs the rows are the paper's virtual tables.
type expectedRows struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Rows     []string `json:"rows"`
}

func loadExpected(workload string) (*expectedRows, error) {
	data, err := expectedFS.ReadFile("expected/" + workload + ".seed1.json")
	if err != nil {
		return nil, err
	}
	var exp expectedRows
	if err := json.Unmarshal(data, &exp); err != nil {
		return nil, fmt.Errorf("expected/%s.seed1.json: %w", workload, err)
	}
	return &exp, nil
}

// runResult is one workload's part of a run.
type runResult struct {
	Workload string `json:"workload"`
	// Op and Job say what this workload's operation and job are.
	Op        string  `json:"op"`
	Job       string  `json:"job"`
	Passes    int     `json:"passes"`
	Rounds    int     `json:"rounds_per_pass"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	Mismatch  string  `json:"mismatch,omitempty"`
	Digest    string  `json:"digest"`
	WallS     float64 `json:"wall_s"`
	// Speed is the median calibration factor of the passes: what the times
	// were multiplied by to turn them into reference seconds.
	Speed   float64 `json:"speed"`
	Metrics metrics `json:"metrics"`

	rows []string
}

// driverLine is the object the BENCHMARK.json driver reads.
func (r runResult) driverLine() map[string]any {
	ms := make(map[string]any, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func (r runResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s: %d passes x %d rounds, %d ops attempted, %d failed, digest %s, %.1f s, machine at %.3f of reference speed\n",
		r.Workload, r.Passes, r.Rounds, r.Attempted, r.Failed, r.Digest, r.WallS, r.Speed)
	fmt.Fprintf(w, "  op = %s; job = %s\n", r.Op, r.Job)
	for _, name := range r.Metrics.names() {
		m := r.Metrics[name]
		if m.N > 0 && m.Q3 > 0 {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s  q1 %.4f  q3 %.4f  n %d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// check settles correctness: no failed operation, every pass's rows equal
// to the first's (a seed is checked by running it twice), and at seed 1
// equal to the committed expected rows.
func (r *runResult) check(seed int64, passes []passResult) {
	r.Correct = true
	fail := func(format string, args ...any) {
		if r.Correct {
			r.Correct = false
			r.Mismatch = fmt.Sprintf(format, args...)
		}
	}
	if r.Failed > 0 {
		fail("%d of %d operations failed or read back wrong", r.Failed, r.Attempted)
	}
	for i, p := range passes {
		// A traced pass runs fewer rounds; compare what both ran.
		n := len(p.rows)
		if len(r.rows) < n {
			n = len(r.rows)
		}
		if d := firstDiff(p.rows[:n], r.rows[:n]); d != "" {
			fail("pass %d does not repeat pass 0: %s", i, d)
		}
	}
	if seed != 1 {
		return
	}
	exp, err := loadExpected(r.Workload)
	if err != nil {
		fail("no expected rows for seed 1: %v", err)
		return
	}
	n := len(r.rows)
	if len(exp.Rows) < n {
		fail("expected/%s.seed1.json has %d rows, the pass produced %d", r.Workload, len(exp.Rows), n)
		return
	}
	if d := firstDiff(r.rows, exp.Rows[:n]); d != "" {
		fail("differs from expected/%s.seed1.json: %s", r.Workload, d)
	}
}

func newRunResult(spec workloadSpec, passes []passResult, rounds int) runResult {
	r := runResult{Workload: spec.name, Op: spec.opUnit, Job: spec.jobUnit, Passes: len(passes), Rounds: rounds}
	var speeds []float64
	for _, p := range passes {
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.WallS += p.wall.Seconds()
		speeds = append(speeds, p.speed)
	}
	r.Speed = median(speeds)
	if len(passes) > 0 {
		r.rows = passes[0].rows
		r.Digest = digest(r.rows)
	}
	return r
}

// measure is an untraced run of one workload: passes on fresh clusters
// until the time is used up (two at least, so that every seed is checked
// by running it twice), and the end-to-end metrics over all of them.
func measure(spec workloadSpec, seed int64, budget time.Duration) (runResult, error) {
	e := &env{seed: seed}
	setups, err := timeSetups(spec, e)
	if err != nil {
		return runResult{}, err
	}
	var passes []passResult
	for wantsPass(passes, budget) {
		p, err := runPass(spec, e, spec.rounds)
		if err != nil {
			return runResult{}, err
		}
		passes = append(passes, p)
	}
	res := newRunResult(spec, passes, spec.rounds)
	res.Metrics = endToEndMetrics(passes, setups)
	res.check(seed, passes)
	return res, nil
}

// wantsPass decides whether a workload runs another pass: two at least,
// then for as long as the next one would end nearer the budget than the
// last one did.
func wantsPass(passes []passResult, budget time.Duration) bool {
	if len(passes) < 2 {
		return true
	}
	var used time.Duration
	for _, p := range passes {
		used += p.wall
	}
	return used+passes[len(passes)-1].wall/2 < budget
}

// writeExpected stores a result's rows as the committed expectation.
func writeExpected(dir string, r runResult) error {
	data, err := json.MarshalIndent(expectedRows{Workload: r.Workload, Seed: 1, Rows: r.rows}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".seed1.json"), append(data, '\n'), 0o644)
}
