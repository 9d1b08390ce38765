// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§IV) on simulated clusters, printing
// the same rows and series the paper reports.
//
//	Table I — benchmark applications and input sizes
//	Fig. 2  — end-to-end speedup over a single GPU and FPGA, per benchmark,
//	          for Local, HaoCL-GPU, HaoCL-FPGA, HaoCL-Hetero and SnuCL-D
//	Fig. 3  — MatrixMul breakdown (DataCreate / ComputeTime / DataTransfer)
//	          across matrix sizes and GPU counts
//	§IV-B   — single-node overhead of HaoCL versus native OpenCL
//
// HaoCL numbers come from real runs of the benchmark host programs through
// the public API on in-process clusters (virtual-time clocks, functional
// execution on reduced inputs, costs modeled at paper scale); Local and
// SnuCL-D numbers come from the analytic baselines in internal/baseline,
// which share the same device and network models.
//
// Identical runs must print identical rows, so the harness is a
// deterministic package; the only wall-clock reads live in walltime.go.
//
// haoclvet:deterministic
package bench

import (
	"fmt"
	"io"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps"
	"github.com/haocl-project/haocl/internal/apps/bfs"
	"github.com/haocl-project/haocl/internal/apps/cfd"
	"github.com/haocl-project/haocl/internal/apps/knn"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/apps/spmv"
	"github.com/haocl-project/haocl/internal/baseline"
)

// Experiment is one of haocl-bench's -exp choices. Run prints its rows,
// over reduced sweeps when quick is set, and fails when a result breaks
// an invariant the experiment exists to show.
type Experiment struct {
	Name string
	Run  func(w io.Writer, quick bool) error
}

// Experiments lists every experiment in the order haocl-bench runs them
// all. TestVirtualGolden runs the same list in its full form.
var Experiments = []Experiment{
	{"table1", func(w io.Writer, _ bool) error { return Table1(w) }},
	{"overhead", func(w io.Writer, _ bool) error { return Overhead(w) }},
	{"fig2", func(w io.Writer, quick bool) error { return Fig2(w, fig2Options(quick)) }},
	{"hetero", func(w io.Writer, quick bool) error { return Hetero(w, heteroMixes(quick)) }},
	{"fig3", func(w io.Writer, _ bool) error { return Fig3(w) }},
	{"ablation", func(w io.Writer, _ bool) error { return Ablations(w) }},
	{"pipeline", Pipeline},
	{"chaos", Chaos},
	{"serve", Serve},
	{"serve-trace", func(w io.Writer, _ bool) error { return ServeTrace(w) }},
}

// Registry builds a kernel registry with every benchmark installed.
func Registry() *haocl.KernelRegistry {
	reg := haocl.NewKernelRegistry()
	matmul.RegisterKernels(reg)
	spmv.RegisterKernels(reg)
	knn.RegisterKernels(reg)
	bfs.RegisterKernels(reg)
	cfd.RegisterKernels(reg)
	return reg
}

// cluster starts an in-process cluster with the given node mix and returns
// it with its trace run (nil when the harness is not tracing).
func cluster(gpus, fpgas int) (*haocl.LocalCluster, *haocl.TraceRun, error) {
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		UserID:      "bench",
		GPUNodes:    gpus,
		FPGANodes:   fpgas,
		Bitstreams:  apps.Bitstreams(),
		Kernels:     Registry(),
		ExecWorkers: 1,
	})
	if err != nil {
		return nil, nil, err
	}
	return lc, attachTracer(lc.Platform), nil
}

// appCase wires one Table I benchmark into the harness.
type appCase struct {
	Name string
	// Run executes the benchmark with devices partitioning the work.
	Run func(p *haocl.Platform, devices []*haocl.Device) (apps.Result, error)
	// RunHetero executes the heterogeneous configuration (may differ
	// from Run for pipelined workloads like SpMV).
	RunHetero func(p *haocl.Platform, gpus, fpgas []*haocl.Device) (apps.Result, error)
	// Workload is the paper-scale descriptor for the analytic baselines.
	Workload baseline.Workload
	// HeteroBaseFPGA normalizes the hetero series to the single-FPGA
	// local baseline (SpMV's compute stage runs on FPGAs, §IV-C).
	HeteroBaseFPGA bool
	// InputBytes is the Table I input size.
	InputBytes int64
	// Description is the Table I description row.
	Description string
}

// Cases lists the five Table I benchmarks at paper scale.
func Cases() []appCase {
	return []appCase{
		{
			Name:        "MatrixMul",
			Description: "Matrix multiplication",
			InputBytes:  matmul.InputBytes(matmul.DefaultLogicalN),
			Workload:    matmul.Workload(matmul.DefaultLogicalN),
			Run: func(p *haocl.Platform, devices []*haocl.Device) (apps.Result, error) {
				return matmul.Run(p, matmul.Config{
					LogicalN: matmul.DefaultLogicalN,
					FuncN:    48,
					Devices:  devices,
				})
			},
		},
		{
			Name:        "CFD",
			Description: "Unstructured grid finite volume solver",
			InputBytes:  cfd.InputBytes(cfd.DefaultLogicalElems),
			Workload:    cfd.Workload(cfd.DefaultLogicalElems, cfd.DefaultLogicalIters),
			Run: func(p *haocl.Platform, devices []*haocl.Device) (apps.Result, error) {
				return cfd.Run(p, cfd.Config{
					LogicalElems: cfd.DefaultLogicalElems,
					FuncElems:    16 * len(devices),
					LogicalIters: cfd.DefaultLogicalIters,
					FuncIters:    2,
					Devices:      devices,
				})
			},
		},
		{
			Name:        "kNN",
			Description: "Finds k-nearest neighbors in unstructured data set",
			InputBytes: knn.InputBytes(knn.DefaultLogicalPoints,
				knn.DefaultLogicalQueries, knn.DefaultDims),
			Workload: knn.Workload(knn.DefaultLogicalPoints, knn.DefaultLogicalQueries,
				knn.DefaultDims, knn.DefaultK),
			Run: func(p *haocl.Platform, devices []*haocl.Device) (apps.Result, error) {
				return knn.Run(p, knn.Config{
					LogicalPoints:  knn.DefaultLogicalPoints,
					LogicalQueries: knn.DefaultLogicalQueries,
					FuncPoints:     400,
					FuncQueries:    4,
					Dims:           knn.DefaultDims,
					K:              knn.DefaultK,
					Devices:        devices,
				})
			},
		},
		{
			Name:        "BFS",
			Description: "Traverses all the connected components in a graph",
			InputBytes:  bfs.InputBytes(bfs.DefaultLogicalSide),
			Workload:    bfs.Workload(bfs.DefaultLogicalSide, bfs.DefaultSources),
			Run: func(p *haocl.Platform, devices []*haocl.Device) (apps.Result, error) {
				return bfs.Run(p, bfs.Config{
					LogicalSide: bfs.DefaultLogicalSide,
					FuncSide:    6,
					Sources:     bfs.DefaultSources,
					Devices:     devices,
				})
			},
		},
		{
			Name:        "SpMV",
			Description: "Sparse matrix-vector multiplication in CSR format",
			InputBytes: spmv.InputBytes(spmv.DefaultLogicalRows,
				spmv.DefaultLogicalNNZPerRow),
			Workload: spmv.Workload(spmv.DefaultLogicalRows,
				spmv.DefaultLogicalNNZPerRow, spmv.DefaultLogicalIters),
			Run: func(p *haocl.Platform, devices []*haocl.Device) (apps.Result, error) {
				return spmv.Run(p, spmv.Config{
					LogicalRows:      spmv.DefaultLogicalRows,
					LogicalNNZPerRow: spmv.DefaultLogicalNNZPerRow,
					FuncRows:         256,
					FuncNNZPerRow:    8,
					LogicalIters:     spmv.DefaultLogicalIters,
					FuncIters:        2,
					PartitionDevices: devices[:1],
					ComputeDevices:   devices,
				})
			},
			HeteroBaseFPGA: true,
			RunHetero: func(p *haocl.Platform, gpus, fpgas []*haocl.Device) (apps.Result, error) {
				// The paper's pipeline split: partition on GPUs,
				// computation on FPGAs (§IV-C).
				return spmv.Run(p, spmv.Config{
					LogicalRows:      spmv.DefaultLogicalRows,
					LogicalNNZPerRow: spmv.DefaultLogicalNNZPerRow,
					FuncRows:         256,
					FuncNNZPerRow:    8,
					LogicalIters:     spmv.DefaultLogicalIters,
					FuncIters:        2,
					PartitionDevices: gpus,
					ComputeDevices:   fpgas,
				})
			},
		},
	}
}

// Table1 prints the benchmark applications table.
func Table1(w io.Writer) error {
	fmt.Fprintln(w, "=== Table I: Benchmark applications ===")
	fmt.Fprintf(w, "%-10s %-52s %s\n", "App.", "Description", "In. size")
	for _, c := range Cases() {
		fmt.Fprintf(w, "%-10s %-52s %s\n", c.Name, c.Description, fmtBytes(c.InputBytes))
	}
	return nil
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.0fMB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
