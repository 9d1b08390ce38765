// Command compare reads two sets of benchmark result files, A (the parent)
// and B (the change), and prints one row per workload and metric with the
// verdict the benchmark's own rules give it:
//
//	better      B's median is better than A's by more than A's spread
//	same        neither better nor worse
//	worse       B's median is worse than A's by more than the metric's bound
//	unresolved  A's own runs spread wider than the bound, so the bound
//	            cannot be checked: not the same as unchanged
//
// Direction and bound come from BENCHMARK.json. Each side is a result file
// written by the benchmark's -out, or a directory of them (the runs of one
// commit). With several runs a side's value is the median of the runs and
// its spread the distance between their quartiles over that median; with
// one run the spread is that of the run's own rounds. Results from
// different toolchains, GOMAXPROCS or core counts are refused.
//
//	cd benchmark && go run ./compare ../parent-runs ../change-runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

type runResult struct {
	Digest  string            `json:"digest"`
	Correct bool              `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
}

type report struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Workloads  []struct {
		Name     string    `json:"name"`
		EndToEnd runResult `json:"end_to_end"`
		Traced   runResult `json:"traced"`
	} `json:"workloads"`
	Ladder map[string]metric `json:"ladder"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark's BENCHMARK.json")
	layers := flag.Bool("layers", false, "also list the per-layer metrics (change only: they have no bound)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] [-layers] A B   (each a result file or a directory of them)")
		os.Exit(2)
	}
	var spec benchmarkSpec
	if err := readJSON(*specPath, &spec); err != nil {
		fatal(err)
	}
	a, err := loadSet(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := loadSet(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if err := sameMachine(append(append([]*report(nil), a...), b...)); err != nil {
		fatal(err)
	}
	fmt.Printf("A: %d run(s) of %s   B: %d run(s) of %s   %s, GOMAXPROCS %d of %d\n",
		len(a), a[0].Commit, len(b), b[0].Commit, a[0].GoVersion, a[0].GOMAXPROCS, a[0].NumCPU)

	bad := 0
	fmt.Printf("%-13s %-18s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "spread A", "bound", "verdict")
	for _, w := range a[0].Workloads {
		for _, ms := range spec.EndToEnd {
			va, wa := collect(a, w.Name, ms.Name, false)
			vb, _ := collect(b, w.Name, ms.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			spreadA := spread(va, wa)
			worse := (mb - ma) / math.Abs(ma)
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case spreadA > ms.Bound:
				verdict = "unresolved"
				bad++
			case worse > ms.Bound:
				verdict = "worse"
				bad++
			case -worse > better(spreadA, len(va), ms.Bound):
				verdict = "better"
			}
			fmt.Printf("%-13s %-18s %14.4f %14.4f %+8.2f%% %8.2f%% %6.0f%%  %s\n",
				w.Name, ms.Name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*spreadA, 100*ms.Bound, verdict)
		}
		if da, db := digests(a, w.Name), digests(b, w.Name); da != db {
			fmt.Printf("%-13s digests differ: A %s, B %s\n", w.Name, da, db)
		}
	}
	if *layers {
		fmt.Printf("\n%-13s %-36s %14s %14s %9s\n", "workload", "per-layer metric", "A", "B", "change")
		names := append([]string{"ladder"}, workloadNames(a[0])...)
		for _, w := range names {
			for _, ms := range spec.PerLayer {
				va, _ := collect(a, w, ms.Name, true)
				vb, _ := collect(b, w, ms.Name, true)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				change := "      n/a"
				if ma != 0 {
					change = fmt.Sprintf("%+8.2f%%", 100*(mb-ma)/math.Abs(ma))
				}
				fmt.Printf("%-13s %-36s %14.4f %14.4f %s\n", w, ms.Name, ma, mb, change)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d end-to-end pair(s) worse or unresolved\n", bad)
		os.Exit(1)
	}
}

// better is how much B must improve on A to be called better: more than
// A's spread between runs, or, when A is a single run and has none, more
// than the bound.
func better(spreadA float64, runs int, bound float64) float64 {
	if runs < 2 {
		return math.Max(spreadA, bound)
	}
	return math.Max(spreadA, 0.001)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "compare: %v\n", err)
	os.Exit(2)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadSet reads one result file, or every *.json in a directory.
func loadSet(path string) ([]*report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var set []*report
	for _, f := range files {
		r := new(report)
		if err := readJSON(f, r); err != nil {
			return nil, err
		}
		if len(r.Workloads) == 0 {
			return nil, fmt.Errorf("%s: not a benchmark result file", f)
		}
		set = append(set, r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return set, nil
}

func sameMachine(all []*report) error {
	for _, r := range all[1:] {
		if r.GoVersion != all[0].GoVersion || r.GOMAXPROCS != all[0].GOMAXPROCS || r.NumCPU != all[0].NumCPU {
			return fmt.Errorf("refusing to compare: %s, GOMAXPROCS %d, %d cores against %s, GOMAXPROCS %d, %d cores",
				all[0].GoVersion, all[0].GOMAXPROCS, all[0].NumCPU, r.GoVersion, r.GOMAXPROCS, r.NumCPU)
		}
	}
	return nil
}

func workloadNames(r *report) []string {
	var out []string
	for _, w := range r.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// collect gathers one metric of one workload over the runs of a set:
// the values, and each run's own quartile spread where it has one.
func collect(set []*report, workload, name string, perLayer bool) (values, within []float64) {
	for _, r := range set {
		var m metric
		var ok bool
		if workload == "ladder" {
			m, ok = r.Ladder[name]
		}
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			if perLayer {
				m, ok = w.Traced.Metrics[name]
			} else {
				m, ok = w.EndToEnd.Metrics[name]
			}
		}
		if !ok {
			continue
		}
		values = append(values, m.Value)
		if m.N > 0 && m.Q3 > 0 && m.Value != 0 {
			within = append(within, (m.Q3-m.Q1)/math.Abs(m.Value))
		}
	}
	return values, within
}

func digests(set []*report, workload string) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range set {
		for _, w := range r.Workloads {
			if w.Name == workload && !seen[w.EndToEnd.Digest] {
				seen[w.EndToEnd.Digest] = true
				out = append(out, fmt.Sprintf("%s(seed %d)", w.EndToEnd.Digest, r.Seed))
			}
		}
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile of the runs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. A single run falls back on the
// spread of its own rounds.
func spread(values, within []float64) float64 {
	if len(values) < 2 {
		if len(within) > 0 {
			return within[0]
		}
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (q(0.75) - q(0.25)) / math.Abs(median(values))
}
