package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"github.com/haocl-project/haocl/internal/bench"
)

// paper-figs: the paper's own evaluation, which is also the one workload
// in which steady-state streaming does nothing. A round regenerates Fig. 2
// for all five applications at the paper's scales, the Fig. 3 grid, the
// §IV-B single-node overhead table and the §IV-C heterogeneity table:
// 94 short-lived in-process clusters of 1 to 20 nodes, each connected,
// handshaken, built for (clc.Parse), run with real functional kernels and
// torn down. Cluster and session life-cycle, the kernel executor, the
// scheduling policies and the applications do the work. Every virtual row
// the figures print is part of the digest, which makes this file's
// expected rows the gated baseline of the paper's headline results.
const (
	figClustersFig2   = 12 // per application: 5 GPU, 3 FPGA and 4 hybrid scales
	figClustersHetero = 8  // 2 applications × 4 mixes
	figClustersOver   = 5  // one single-GPU cluster per application
)

// figCall is one call into the figure harness: the job of this workload.
type figCall struct {
	name     string
	clusters int // figure cells: clusters the call starts and runs
	run      func() ([]string, error)
}

type paperFigs struct {
	e     *env
	calls []figCall
	order []int // seeded order in which a round makes the calls
	// mirror is the row of the one cell set-up ran, which every round must
	// reproduce; first the tables of the pass's first round, which every
	// later round must.
	mirrorCall int
	mirror     string
	first      []string
}

func (w *paperFigs) setup(e *env) error {
	w.e = e
	opts := bench.DefaultFig2Options()
	for _, c := range bench.Cases() {
		c := c
		w.calls = append(w.calls, figCall{"fig2/" + c.Name, figClustersFig2, func() ([]string, error) {
			rows, err := bench.Fig2App(c, opts)
			out := make([]string, len(rows))
			for i, r := range rows {
				out[i] = strings.Join(strings.Fields(r.String()), " ")
			}
			return out, err
		}})
	}
	for _, size := range bench.Fig3Sizes {
		for _, gpus := range bench.Fig3GPUCounts {
			size, gpus := size, gpus
			w.calls = append(w.calls, figCall{fmt.Sprintf("fig3/N=%d/gpus=%d", size, gpus), 1, func() ([]string, error) {
				row, err := bench.Fig3Cell(size, gpus)
				return []string{strings.Join(strings.Fields(row.String()), " ")}, err
			}})
		}
	}
	w.calls = append(w.calls,
		figCall{"overhead", figClustersOver, func() ([]string, error) { return printed(bench.Overhead) }},
		figCall{"hetero", figClustersHetero, func() ([]string, error) {
			return printed(func(b io.Writer) error { return bench.Hetero(b, opts.HeteroMixes) })
		}},
	)
	// The applications generate their own inputs from fixed seeds (that is
	// what makes the paper's tables reproducible); the benchmark's seed
	// orders the calls.
	w.order = rand.New(rand.NewSource(e.seed)).Perm(len(w.calls))
	// One cell ahead of the rounds, so that set-up ends where the first
	// round could start: code paths faulted in, a first cluster started and
	// stopped. Its row is the mirror the rounds are checked against.
	w.mirrorCall = len(bench.Cases())
	rows, err := w.calls[w.mirrorCall].run()
	if err != nil {
		return err
	}
	w.mirror = rows[0]
	if e.corruptMirror {
		w.mirror += " (corrupted)"
	}
	return nil
}

// printed runs a harness function that prints its table and returns the
// rows, with runs of blanks folded.
func printed(f func(io.Writer) error) ([]string, error) {
	var buf bytes.Buffer
	err := f(&buf)
	var rows []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if line = strings.Join(strings.Fields(line), " "); line != "" {
			rows = append(rows, line)
		}
	}
	return rows, err
}

func (w *paperFigs) teardown() {}

func (w *paperFigs) round(r int) (roundResult, error) {
	res := roundResult{}
	tables := make([][]string, len(w.calls))
	for _, i := range w.order {
		call := w.calls[i]
		start := time.Now()
		s := w.e.tr.begin()
		rows, err := call.run()
		w.e.tr.end(spApp, 0, int32(r), s)
		res.jobs = append(res.jobs, time.Since(start))
		res.ops += call.clusters
		if err != nil {
			return res, fmt.Errorf("%s: %w", call.name, err)
		}
		tables[i] = rows
	}
	w.e.atPeak()
	// Rows in the figures' own order, whatever order the calls ran in;
	// that order, which is all the seed decides here, goes first.
	rows := []string{fmt.Sprint("call order: ", w.order)}
	for i, t := range tables {
		for _, row := range t {
			rows = append(rows, w.calls[i].name+": "+row)
		}
	}
	if tables[w.mirrorCall][0] != w.mirror {
		res.failed++
	}
	if w.first == nil {
		// The tables are the same every round; one copy goes in the digest
		// and every later round is checked against it.
		w.first = rows
		res.rows = rows
	} else if d := firstDiff(rows, w.first); d != "" {
		res.failed++
		res.rows = []string{fmt.Sprintf("round=%d: %s", r, d)}
	}
	return res, nil
}
