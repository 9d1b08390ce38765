package main

import "sort"

// metric is one reported number. Timing metrics carry the quartiles and
// sample count behind their value; counts and ratios leave them zero.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) setSummary(name, unit string, s summary) {
	m[name] = metric{Value: s.Median, Unit: unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// endToEndMetrics computes what a user of the system sees, from untraced
// passes only. Every timing metric is the median over all measured rounds
// of all passes, in reference seconds: each pass's times are scaled by the
// pass's calibration factor. setupS are the extra set-up samples taken
// beside the passes' own, already scaled.
func endToEndMetrics(passes []passResult, setupS []float64) metrics {
	setupS = append([]float64(nil), setupS...)
	var opsPerS, cpuUS, allocs, allocB, heap, jobsUS []float64
	for _, p := range passes {
		setupS = append(setupS, p.setup.Seconds()*p.speed)
		heap = append(heap, p.heapPeak)
		for _, r := range p.rounds {
			ops := float64(r.ops)
			opsPerS = append(opsPerS, ops/(r.window().Seconds()*p.speed))
			cpuUS = append(cpuUS, float64(r.cpu.Nanoseconds())/1e3*p.speed/ops)
			allocs = append(allocs, float64(r.mallocs)/ops)
			allocB = append(allocB, float64(r.allocB)/ops)
			for _, j := range r.jobs {
				jobsUS = append(jobsUS, float64(j.Nanoseconds())/1e3*p.speed)
			}
		}
	}
	m := metrics{}
	m.setSummary("setup_s", "s", summarize(setupS))
	m.setSummary("ops_per_s", "1/s", summarize(opsPerS))
	m.setSummary("cpu_us_per_op", "us", summarize(cpuUS))
	m.setSummary("allocs_per_op", "1", summarize(allocs))
	m.setSummary("alloc_b_per_op", "B", summarize(allocB))
	m.setSummary("heap_retained_mb", "MB", summarize(heap))
	sort.Float64s(jobsUS)
	m["job_p50_us"] = metric{Value: quantile(jobsUS, 0.50), Unit: "us", N: len(jobsUS)}
	m["job_p95_us"] = metric{Value: quantile(jobsUS, 0.95), Unit: "us", N: len(jobsUS)}
	return m
}
