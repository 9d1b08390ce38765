package bench

import (
	"fmt"
	"io"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/baseline"
	"github.com/haocl-project/haocl/internal/sim"
)

// Fig3Sizes are the matrix dimensions on the paper's x-axis.
var Fig3Sizes = []int{1000, 2000, 4000, 5000, 6000, 8000, 10000}

// Fig3GPUCounts are the per-size GPU-node groups of the paper's bars.
var Fig3GPUCounts = []int{2, 4, 9}

// Fig3Row is one stacked bar of the breakdown chart.
type Fig3Row struct {
	MatrixSize int
	GPUs       int
	DataCreate float64 // seconds
	Compute    float64
	Transfer   float64
	Total      float64
}

func (r Fig3Row) String() string {
	return fmt.Sprintf("N=%-6d gpus=%-2d DataCreate=%8.3fs ComputeTime=%9.3fs DataTransfer=%8.3fs total=%9.3fs",
		r.MatrixSize, r.GPUs, r.DataCreate, r.Compute, r.Transfer, r.Total)
}

// Fig3Cell measures one (size, gpus) configuration.
func Fig3Cell(size, gpus int) (Fig3Row, error) {
	lc, _, err := cluster(gpus, 0)
	if err != nil {
		return Fig3Row{}, err
	}
	defer lc.Close()
	res, err := matmul.Run(lc.Platform, matmul.Config{
		LogicalN: size,
		FuncN:    48,
		Devices:  lc.Platform.Devices(haocl.GPU),
	})
	if err != nil {
		return Fig3Row{}, err
	}
	return Fig3Row{
		MatrixSize: size,
		GPUs:       gpus,
		DataCreate: res.DataCreate.Seconds(),
		Compute:    res.Compute.Seconds(),
		Transfer:   res.Transfer.Seconds(),
		Total:      res.Makespan.Seconds(),
	}, nil
}

// Fig3 reproduces the system breakdown analysis with Matrix
// Multiplication: data creation, compute and transfer components across
// matrix sizes 1000..10000 and 2/4/9 GPU nodes. System initialization is
// negligible and omitted, as in the paper.
func Fig3(w io.Writer) error {
	fmt.Fprintln(w, "=== Fig. 3: System breakdown analysis with Matrix Multiplication ===")
	var rows []Fig3Row
	for _, size := range Fig3Sizes {
		for _, gpus := range Fig3GPUCounts {
			row, err := Fig3Cell(size, gpus)
			if err != nil {
				return fmt.Errorf("fig3 N=%d gpus=%d: %w", size, gpus, err)
			}
			fmt.Fprintln(w, row)
			rows = append(rows, row)
		}
	}
	fmt.Fprintln(w)
	RenderFig3Chart(w, rows)
	return nil
}

// Overhead reproduces the §IV-B claim that HaoCL imposes a negligible
// overhead versus a native single-node OpenCL environment: each benchmark
// on one HaoCL GPU node versus the Local analytic baseline.
func Overhead(w io.Writer) error {
	fmt.Fprintln(w, "=== Single-node overhead: HaoCL (1 GPU node) vs native OpenCL ===")
	for _, c := range Cases() {
		local := baseline.Local(c.Workload, sim.TeslaP4Params(1))
		res, err := runOnCluster(c, 1, 0, false)
		if err != nil {
			return fmt.Errorf("overhead %s: %w", c.Name, err)
		}
		ratio := res.Makespan.Seconds() / local.Total.Seconds()
		fmt.Fprintf(w, "%-10s local=%9.3fs haocl=%9.3fs overhead=%+6.1f%%\n",
			c.Name, local.Total.Seconds(), res.Makespan.Seconds(), (ratio-1)*100)
	}
	return nil
}
