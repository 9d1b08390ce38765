package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// report is the result file of a full run: enough about the machine and
// the build to refuse a comparison across them, and every metric of every
// workload by name.
type report struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_workload"`
	WallS      float64 `json:"wall_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`

	Workloads []workloadReport `json:"workloads"`
	// Ladder holds the per-layer ladder metrics, which belong to no workload.
	Ladder metrics `json:"ladder"`
}

type workloadReport struct {
	Name string `json:"name"`
	// EndToEnd comes from the untraced passes, Traced from the traced run.
	EndToEnd runResult `json:"end_to_end"`
	Traced   runResult `json:"traced"`
}

func newReport(seed int64, budget time.Duration) *report {
	r := &report{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Seed: seed, Seconds: budget.Seconds(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				r.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					r.Commit += "+modified"
				}
			}
		}
	}
	return r
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// fullReport is the one command: it sets up and runs every workload,
// checks every output and prints every metric by name with its unit.
// Passes interleave the workloads (A B C D E, A B C D E, ...) so that
// machine drift lands on all of them alike; then come one traced run per
// workload and the ladder.
func fullReport(seed int64, budget time.Duration, out, traceOut, writeExp string) error {
	start := time.Now()
	rep := newReport(seed, budget)
	e := &env{seed: seed}

	setups := make([][]float64, len(workloads))
	for i, spec := range workloads {
		var err error
		if setups[i], err = timeSetups(spec, e); err != nil {
			return err
		}
	}
	passes := make([][]passResult, len(workloads))
	for again := true; again; {
		again = false
		for i, spec := range workloads {
			if !wantsPass(passes[i], budget) {
				continue
			}
			p, err := runPass(spec, e, spec.rounds)
			if err != nil {
				return err
			}
			passes[i] = append(passes[i], p)
			again = true
		}
	}

	ok := true
	writing := writeExp != "" && seed == 1
	for i, spec := range workloads {
		res := newRunResult(spec, passes[i], spec.rounds)
		res.Metrics = endToEndMetrics(passes[i], setups[i])
		if writing {
			if err := writeExpected(writeExp, res); err != nil {
				return err
			}
		}
		res.check(seed, passes[i])
		file := traceOut
		if file != "" {
			ext := filepath.Ext(file)
			file = strings.TrimSuffix(file, ext) + "." + spec.name + ext
		}
		traced, err := measureTraced(spec, seed, file)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, workloadReport{Name: spec.name, EndToEnd: res, Traced: traced})
		res.print(os.Stdout)
		traced.print(os.Stdout)
		for _, r := range []runResult{res, traced} {
			if !r.Correct && !writing {
				ok = false
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", spec.name, r.Mismatch)
			}
		}
	}

	ladder, err := runLadder()
	if err != nil {
		return err
	}
	rep.Ladder = ladder
	fmt.Println("ladder:")
	for _, name := range ladder.names() {
		fmt.Printf("  %-36s %14.4f %s\n", name, ladder[name].Value, ladder[name].Unit)
	}
	rep.WallS = time.Since(start).Seconds()
	rep.PeakRSSMB = peakRSSMB()
	fmt.Printf("whole run: %.1f s, peak RSS %.0f MB, %s, GOMAXPROCS %d of %d, %s, commit %s\n",
		rep.WallS, rep.PeakRSSMB, rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU, rep.CPUModel, rep.Commit)

	if out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("outputs are not correct")
	}
	return nil
}
