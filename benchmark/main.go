// Command benchmark is the repository's yardstick: five workloads over the
// real host runtime and in-process nodes, end-to-end metrics taken with
// tracing off, and a per-layer ladder plus a traced pass that attribute
// them. See README.md beside this file.
//
//	bash benchmark/run.sh -seed 1 -out result.json            every workload, every metric
//	bash benchmark/run.sh --workload cmd-stream --seed 1 --seconds 20 --trace 0
//
// The second form is what BENCHMARK.json's driver runs: one workload, and
// as the last line of standard output one JSON object with the end-to-end
// (--trace 0) or per-layer (--trace 1) metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload only and print the driver's one-line JSON result (default: all workloads, full report)")
		seed         = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds      = flag.Int("seconds", 12, "how long to measure each workload; passes are added until it is used up")
		traceMode    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and the ladder and prints the per-layer metrics")
		out          = flag.String("out", "", "full report: write the result file here")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans here as Chrome trace-event JSON")
		writeExp     = flag.String("write-expected", "", "full report with -seed 1: write expected/<workload>.seed1.json into this directory instead of checking against it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	budget := time.Duration(*seconds) * time.Second

	if *workloadName == "" {
		if err := fullReport(*seed, budget, *out, *traceOut, *writeExp); err != nil {
			fatal(err)
		}
		return
	}
	spec, ok := findWorkload(*workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	var res runResult
	var err error
	if *traceMode == 0 {
		res, err = measure(spec, *seed, budget)
	} else {
		res, err = measureTraced(spec, *seed, *traceOut)
		if err == nil {
			var ladder metrics
			ladder, err = runLadder()
			for name, m := range ladder {
				res.Metrics[name] = m
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", spec.name, res.Mismatch)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}
