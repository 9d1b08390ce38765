package bench

import (
	"fmt"
	"io"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps"
	"github.com/haocl-project/haocl/internal/baseline"
	"github.com/haocl-project/haocl/internal/sim"
)

// Fig2Options selects the cluster scales to sweep.
type Fig2Options struct {
	GPUCounts    []int
	FPGACounts   []int
	HeteroMixes  [][2]int // {gpuNodes, fpgaNodes}
	SnuCLDCounts []int
}

// DefaultFig2Options reproduces the paper's scales: up to 16 GPU nodes and
// 4 FPGA nodes (§IV-A).
func DefaultFig2Options() Fig2Options {
	return Fig2Options{
		GPUCounts:    []int{1, 2, 4, 8, 16},
		FPGACounts:   []int{1, 2, 4},
		HeteroMixes:  [][2]int{{2, 1}, {4, 2}, {8, 4}, {16, 4}},
		SnuCLDCounts: []int{1, 2, 4, 8, 16},
	}
}

// Fig2Row is one measured series point.
type Fig2Row struct {
	App     string
	Series  string
	Nodes   int
	Seconds float64
	// Speedup is relative to the series' single-device local baseline
	// (Local-GPU for GPU/hetero/SnuCL-D series, Local-FPGA for FPGA).
	Speedup float64
	// Supported is false where the paper marks the configuration
	// impossible (CFD on SnuCL-D).
	Supported bool
}

func (r Fig2Row) String() string {
	if !r.Supported {
		return fmt.Sprintf("%-10s %-13s n=%-3d unsupported", r.App, r.Series, r.Nodes)
	}
	return fmt.Sprintf("%-10s %-13s n=%-3d time=%9.3fs speedup=%6.2fx",
		r.App, r.Series, r.Nodes, r.Seconds, r.Speedup)
}

// runOnCluster measures one HaoCL configuration of one benchmark.
func runOnCluster(c appCase, gpus, fpgas int, hetero bool) (apps.Result, error) {
	lc, _, err := cluster(gpus, fpgas)
	if err != nil {
		return apps.Result{}, err
	}
	defer lc.Close()
	if hetero && c.RunHetero != nil {
		return c.RunHetero(lc.Platform,
			lc.Platform.Devices(haocl.GPU), lc.Platform.Devices(haocl.FPGA))
	}
	return c.Run(lc.Platform, lc.Platform.Devices(haocl.AnyDevice))
}

// Fig2App produces every series for one benchmark.
func Fig2App(c appCase, opts Fig2Options) ([]Fig2Row, error) {
	localGPU := baseline.Local(c.Workload, sim.TeslaP4Params(1))
	localFPGA := baseline.Local(c.Workload, sim.VU9PParams(1, nil))

	rows := []Fig2Row{
		{App: c.Name, Series: "Local-GPU", Nodes: 1,
			Seconds: localGPU.Total.Seconds(), Speedup: 1, Supported: true},
		{App: c.Name, Series: "Local-FPGA", Nodes: 1,
			Seconds: localFPGA.Total.Seconds(), Speedup: 1, Supported: true},
	}

	for _, n := range opts.GPUCounts {
		res, err := runOnCluster(c, n, 0, false)
		if err != nil {
			return nil, fmt.Errorf("%s HaoCL-GPU n=%d: %w", c.Name, n, err)
		}
		rows = append(rows, Fig2Row{
			App: c.Name, Series: "HaoCL-GPU", Nodes: n,
			Seconds:   res.Makespan.Seconds(),
			Speedup:   localGPU.Total.Seconds() / res.Makespan.Seconds(),
			Supported: true,
		})
	}
	for _, n := range opts.FPGACounts {
		res, err := runOnCluster(c, 0, n, false)
		if err != nil {
			return nil, fmt.Errorf("%s HaoCL-FPGA n=%d: %w", c.Name, n, err)
		}
		rows = append(rows, Fig2Row{
			App: c.Name, Series: "HaoCL-FPGA", Nodes: n,
			Seconds:   res.Makespan.Seconds(),
			Speedup:   localFPGA.Total.Seconds() / res.Makespan.Seconds(),
			Supported: true,
		})
	}
	heteroBase := localGPU.Total.Seconds()
	if c.HeteroBaseFPGA {
		heteroBase = localFPGA.Total.Seconds()
	}
	for _, mix := range opts.HeteroMixes {
		res, err := runOnCluster(c, mix[0], mix[1], true)
		if err != nil {
			return nil, fmt.Errorf("%s HaoCL-Hetero %v: %w", c.Name, mix, err)
		}
		rows = append(rows, Fig2Row{
			App: c.Name, Series: "HaoCL-Hetero", Nodes: mix[0] + mix[1],
			Seconds:   res.Makespan.Seconds(),
			Speedup:   heteroBase / res.Makespan.Seconds(),
			Supported: true,
		})
	}
	for _, n := range opts.SnuCLDCounts {
		b := baseline.SnuCLD(c.Workload, sim.TeslaP4Params(1), n)
		row := Fig2Row{App: c.Name, Series: "SnuCL-D", Nodes: n, Supported: b.Supported}
		if b.Supported {
			row.Seconds = b.Total.Seconds()
			row.Speedup = localGPU.Total.Seconds() / b.Total.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig2 runs every benchmark's end-to-end sweep and prints the series.
func Fig2(w io.Writer, opts Fig2Options) error {
	fmt.Fprintln(w, "=== Fig. 2: End-to-end speedup over a single GPU and FPGA ===")
	for _, c := range Cases() {
		fmt.Fprintf(w, "--- %s ---\n", c.Name)
		rows, err := Fig2App(c, opts)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintln(w, r)
		}
		fmt.Fprintln(w)
		RenderSpeedupChart(w, rows)
	}
	return nil
}

// Hetero runs the paper's heterogeneity evaluation (§IV-C): MatrixMul with
// identical kernels over data portions and SpMV with pipeline stages split
// between GPUs and FPGAs, across growing hybrid clusters.
func Hetero(w io.Writer, mixes [][2]int) error {
	fmt.Fprintln(w, "=== Fig. 2 (heterogeneity): MatrixMul and SpMV on hybrid clusters ===")
	cases := Cases()
	for _, c := range []appCase{cases[0], cases[4]} { // MatrixMul, SpMV
		dev := sim.TeslaP4Params(1)
		devName := "Local-GPU"
		if c.HeteroBaseFPGA {
			dev = sim.VU9PParams(1, nil)
			devName = "Local-FPGA"
		}
		local := baseline.Local(c.Workload, dev)
		fmt.Fprintf(w, "--- %s (normalized to %s %.3fs) ---\n",
			c.Name, devName, local.Total.Seconds())
		for _, mix := range mixes {
			res, err := runOnCluster(c, mix[0], mix[1], true)
			if err != nil {
				return fmt.Errorf("hetero %s %v: %w", c.Name, mix, err)
			}
			fmt.Fprintf(w, "%-10s gpu=%-2d fpga=%-2d time=%9.3fs speedup=%6.2fx\n",
				c.Name, mix[0], mix[1], res.Makespan.Seconds(),
				local.Total.Seconds()/res.Makespan.Seconds())
		}
	}
	return nil
}
