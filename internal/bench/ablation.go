package bench

import (
	"fmt"
	"io"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/apps/spmv"
)

// AblationResult compares one design choice against its removal.
type AblationResult struct {
	Name     string
	With     float64 // seconds, design choice enabled
	Without  float64 // seconds, design choice ablated
	WithDesc string
	WoDesc   string
}

// Improvement reports the ablated-over-enabled slowdown factor.
func (r AblationResult) Improvement() float64 {
	if r.With == 0 {
		return 0
	}
	return r.Without / r.With
}

func (r AblationResult) String() string {
	return fmt.Sprintf("%-26s %s=%8.3fs  %s=%8.3fs  benefit=%5.2fx",
		r.Name, r.WithDesc, r.With, r.WoDesc, r.Without, r.Improvement())
}

// AblateBroadcastChain compares the pipelined node-to-node chain broadcast
// against naive star distribution (one host transfer per node) for a
// shared buffer reaching n nodes — the backbone design DESIGN.md credits
// for keeping broadcast-heavy benchmarks scalable.
func AblateBroadcastChain(nodes int) (AblationResult, error) {
	res := AblationResult{
		Name:     "broadcast: chain vs star",
		WithDesc: "chain", WoDesc: "star",
	}
	const funcBytes = 1 << 20
	const modelBytes = 240 << 20 // BFS's graph replica

	run := func(chain bool) (float64, error) {
		lc, _, err := cluster(nodes, 0)
		if err != nil {
			return 0, err
		}
		defer lc.Close()
		p := lc.Platform
		ctx, err := p.CreateContext(p.Devices(haocl.AnyDevice))
		if err != nil {
			return 0, err
		}
		queues := make([]*haocl.Queue, nodes)
		for i, d := range p.Devices(haocl.AnyDevice) {
			q, err := ctx.CreateQueue(d)
			if err != nil {
				return 0, err
			}
			queues[i] = q
		}
		buf, err := ctx.CreateBuffer(funcBytes)
		if err != nil {
			return 0, err
		}
		buf.SetModelSize(modelBytes)
		data := make([]byte, funcBytes)
		if chain {
			if _, err := ctx.Broadcast(buf, data, queues); err != nil {
				return 0, err
			}
		} else {
			// Star: each node gets its own host transfer of the full
			// payload. Distinct buffers prevent replica reuse.
			for _, q := range queues {
				b, err := ctx.CreateBuffer(funcBytes)
				if err != nil {
					return 0, err
				}
				b.SetModelSize(modelBytes)
				if _, err := q.EnqueueWrite(b, 0, data); err != nil {
					return 0, err
				}
			}
		}
		return float64(p.Metrics().Makespan) / 1e9, nil
	}

	var err error
	if res.With, err = run(true); err != nil {
		return res, err
	}
	if res.Without, err = run(false); err != nil {
		return res, err
	}
	return res, nil
}

// AblateWeightedPartition compares throughput-weighted data portions
// against equal portions for MatrixMul on a hybrid GPU+FPGA cluster — the
// §IV-C claim that heterogeneity-aware portioning keeps hybrid clusters
// from being bottlenecked by their slowest device.
func AblateWeightedPartition(gpus, fpgas int) (AblationResult, error) {
	res := AblationResult{
		Name:     "hetero split: weighted vs equal",
		WithDesc: "weighted", WoDesc: "equal",
	}
	run := func(equal bool) (float64, error) {
		lc, _, err := cluster(gpus, fpgas)
		if err != nil {
			return 0, err
		}
		defer lc.Close()
		r, err := matmul.Run(lc.Platform, matmul.Config{
			LogicalN:   matmul.DefaultLogicalN,
			FuncN:      48,
			Devices:    lc.Platform.Devices(haocl.AnyDevice),
			EqualSplit: equal,
		})
		if err != nil {
			return 0, err
		}
		return r.Makespan.Seconds(), nil
	}
	var err error
	if res.With, err = run(false); err != nil {
		return res, err
	}
	if res.Without, err = run(true); err != nil {
		return res, err
	}
	return res, nil
}

// AblateSpMVPartitionStage compares the nnz-balancing spmv_partition
// kernel against a naive equal row split on a heavy-tailed matrix — why
// the pipeline's first stage exists at all.
func AblateSpMVPartitionStage(devices int) (AblationResult, error) {
	res := AblationResult{
		Name:     "spmv: nnz-balanced vs naive",
		WithDesc: "balanced", WoDesc: "naive",
	}
	run := func(naive bool) (float64, error) {
		lc, _, err := cluster(devices, 0)
		if err != nil {
			return 0, err
		}
		defer lc.Close()
		gpus := lc.Platform.Devices(haocl.GPU)
		r, err := spmv.Run(lc.Platform, spmv.Config{
			LogicalRows:      spmv.DefaultLogicalRows,
			LogicalNNZPerRow: spmv.DefaultLogicalNNZPerRow,
			LogicalIters:     spmv.DefaultLogicalIters,
			FuncRows:         512,
			FuncNNZPerRow:    8,
			FuncIters:        2,
			Skewed:           true,
			NaiveSplit:       naive,
			PartitionDevices: gpus[:1],
			ComputeDevices:   gpus,
		})
		if err != nil {
			return 0, err
		}
		return r.Makespan.Seconds(), nil
	}
	var err error
	if res.With, err = run(false); err != nil {
		return res, err
	}
	if res.Without, err = run(true); err != nil {
		return res, err
	}
	return res, nil
}

// AblateSchedulerPolicies runs one mixed task graph under every built-in
// policy and reports the makespans, the scheduling component's reason for
// existing. Returned map: policy name → makespan seconds.
func AblateSchedulerPolicies() (map[string]float64, error) {
	const graphSource = `
__kernel void heavy(__global const float* in, __global float* out, const int n) {
    int i = get_global_id(0);
    if (i >= n) return;
    float acc = 0.0f;
    for (int k = 0; k < 256; k++) acc += in[i] * (float)k;
    out[i] = acc;
}
__kernel void light(__global const float* in, __global float* out, const int n) {
    int i = get_global_id(0);
    if (i < n) out[i] = in[i] + 1.0f;
}
`
	policies := []haocl.Policy{
		haocl.RoundRobinPolicy(),
		haocl.LeastLoadedPolicy(),
		haocl.HeteroAwarePolicy(),
		haocl.PowerAwarePolicy(0),
	}
	out := make(map[string]float64, len(policies))
	for _, pol := range policies {
		lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
			UserID:      "ablation",
			CPUNodes:    1,
			GPUNodes:    2,
			FPGANodes:   1,
			Bitstreams:  []string{"heavy", "light"},
			Kernels:     ablationRegistry(),
			ExecWorkers: 1,
		})
		if err != nil {
			return nil, err
		}
		p := lc.Platform
		attachTracer(p)
		ctx, err := p.CreateContext(p.Devices(haocl.AnyDevice))
		if err != nil {
			lc.Close()
			return nil, err
		}
		prog, err := ctx.CreateProgram(graphSource)
		if err != nil {
			lc.Close()
			return nil, err
		}
		if err := prog.Build(); err != nil {
			lc.Close()
			return nil, err
		}
		graph := ctx.NewTaskGraph()
		const n = 1 << 16
		for i := 0; i < 6; i++ {
			in, err := ctx.CreateBuffer(4 * n)
			if err != nil {
				lc.Close()
				return nil, err
			}
			mid, _ := ctx.CreateBuffer(4 * n)
			dst, _ := ctx.CreateBuffer(4 * n)
			kh, err := prog.CreateKernel("heavy")
			if err != nil {
				lc.Close()
				return nil, err
			}
			kh.SetArg(0, in)
			kh.SetArg(1, mid)
			kh.SetArg(2, int32(n))
			kl, _ := prog.CreateKernel("light")
			kl.SetArg(0, mid)
			kl.SetArg(1, dst)
			kl.SetArg(2, int32(n))
			opts := &haocl.LaunchOptions{CostFlops: 40e9, CostBytes: 4e9}
			t1 := graph.Add(fmt.Sprintf("heavy-%d", i), kh, []int{n}, nil, opts)
			graph.Add(fmt.Sprintf("light-%d", i), kl, []int{n}, nil,
				&haocl.LaunchOptions{CostFlops: 1e8, CostBytes: 5e8}, t1)
		}
		if err := graph.Run(pol); err != nil {
			lc.Close()
			return nil, err
		}
		out[pol.Name()] = graph.Makespan().Seconds()
		lc.Close()
	}
	return out, nil
}

func ablationRegistry() *haocl.KernelRegistry {
	reg := haocl.NewKernelRegistry()
	reg.MustRegister(&haocl.KernelSpec{
		Name: "heavy", NumArgs: 3,
		Func: func(it *haocl.WorkItem, args []haocl.KernelArg) {
			i := it.GlobalID(0)
			if i >= args[2].Int() {
				return
			}
			in, out := args[0].Float32s(), args[1].Float32s()
			var acc float32
			for k := 0; k < 256; k++ {
				acc += in[i] * float32(k)
			}
			out[i] = acc
		},
	})
	reg.MustRegister(&haocl.KernelSpec{
		Name: "light", NumArgs: 3,
		Func: func(it *haocl.WorkItem, args []haocl.KernelArg) {
			i := it.GlobalID(0)
			if i < args[2].Int() {
				args[1].Float32s()[i] = args[0].Float32s()[i] + 1
			}
		},
	})
	return reg
}

// Ablations prints every design-choice comparison.
func Ablations(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablations: design choices vs their removal ===")
	bc, err := AblateBroadcastChain(8)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bc)
	wp, err := AblateWeightedPartition(2, 2)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, wp)
	sp, err := AblateSpMVPartitionStage(4)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, sp)

	makespans, err := AblateSchedulerPolicies()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "scheduler policies on a mixed heavy/light task graph:")
	for _, name := range []string{"round-robin", "least-loaded", "hetero-aware", "power-aware"} {
		fmt.Fprintf(w, "  %-14s makespan=%8.3fs\n", name, makespans[name])
	}
	return nil
}
