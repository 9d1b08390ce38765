package bench

import (
	"fmt"
	"io"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/internal/apps/bfs"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// This file measures the asynchronous command path of the backbone
// (paper §III-C: the wrapper library ships every API call as a message over
// an async communication layer). The same command stream is issued in two
// modes:
//
//	sync       — the host waits for every command's response before issuing
//	             the next one, the behavior of the pre-pipelining runtime
//	             (one full round trip per command);
//	pipelined  — commands stream out back to back and the host synchronizes
//	             only at Queue.Finish, the transport's coalescer packing
//	             bursts of small frames into Batch envelopes.
//
// Virtual time is identical in both modes — pipelining does not change
// when the simulated hardware works — so the number that moves is the
// host-side wall-clock enqueue rate (commands/second) and with it the
// end-to-end makespan of command-heavy workloads on real deployments.

// StreamMode selects how the benchmark issues its command stream.
type StreamMode int

// Stream modes.
const (
	ModeSync StreamMode = iota
	ModePipelined
)

// String names the mode as reported in rows.
func (m StreamMode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModePipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("StreamMode(%d)", int(m))
	}
}

// PipelineRow is one (workload, transport, mode) measurement.
type PipelineRow struct {
	Workload   string  `json:"workload"`
	Transport  string  `json:"transport"` // "mem" (in-process pipes) or "tcp" (loopback sockets)
	Mode       string  `json:"mode"`      // "sync" or "pipelined"
	Commands   int64   `json:"commands"`
	WallMS     float64 `json:"wall_ms"`
	CmdsPerSec float64 `json:"cmds_per_sec"`
	VirtualSec float64 `json:"virtual_sec"` // virtual makespan, identical across modes
	// WireMB is the total modeled megabytes moved (chaos experiment); zero
	// (omitted) for experiments that do not track it.
	WireMB float64 `json:"wire_mb,omitempty"`
	// Recoveries counts node-loss recoveries absorbed during the run, and
	// ReplayedCommands the command-log entries re-issued to rebuild lost
	// state — non-zero only on the chaos experiment's failure-injected legs.
	Recoveries       int64 `json:"recoveries,omitempty"`
	ReplayedCommands int64 `json:"replayed_commands,omitempty"`
	// Tenant, Jobs and the latency percentiles are filled by the serve
	// experiment: one row per (leg, tenant), latencies in virtual
	// milliseconds from job arrival to completion, and the leg's overall
	// job throughput in jobs per virtual second on the aggregate row.
	Tenant         string  `json:"tenant,omitempty"`
	Jobs           int64   `json:"jobs,omitempty"`
	P50VirtualMS   float64 `json:"p50_virtual_ms,omitempty"`
	P99VirtualMS   float64 `json:"p99_virtual_ms,omitempty"`
	JobsPerVirtSec float64 `json:"jobs_per_virtual_sec,omitempty"`
}

func (r PipelineRow) String() string {
	s := fmt.Sprintf("%-14s %-4s %-10s commands=%-6d wall=%8.2fms rate=%10.0f cmds/s virtual=%8.3fs",
		r.Workload, r.Transport, r.Mode, r.Commands, r.WallMS, r.CmdsPerSec, r.VirtualSec)
	if r.WireMB > 0 {
		s += fmt.Sprintf(" wire=%8.2fMB", r.WireMB)
	}
	if r.Recoveries > 0 {
		s += fmt.Sprintf(" recoveries=%d", r.Recoveries)
	}
	if r.Tenant != "" {
		s = fmt.Sprintf("%-14s %-4s %-10s tenant=%-10s jobs=%-5d p50=%9.3fms p99=%9.3fms",
			r.Workload, r.Transport, r.Mode, r.Tenant, r.Jobs, r.P50VirtualMS, r.P99VirtualMS)
		if r.JobsPerVirtSec > 0 {
			s += fmt.Sprintf(" rate=%8.1f jobs/vs", r.JobsPerVirtSec)
		}
	}
	return s
}

// pipelinePlatform builds a gpus-node cluster either on the in-process
// pipe network or on real loopback TCP sockets — the latter is the
// deployment shape where the per-command round trip actually costs what
// the paper's GbE backbone charges.
func pipelinePlatform(gpus int, tcp bool) (*haocl.Platform, func(), error) {
	if !tcp {
		lc, _, err := cluster(gpus, 0)
		if err != nil {
			return nil, nil, err
		}
		return lc.Platform, func() { lc.Close() }, nil
	}
	icd := device.NewICD()
	sim.RegisterDrivers(icd, Registry())
	cfg := &haocl.ClusterConfig{UserID: "bench-pipeline"}
	var servers []*transport.Server
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for i := 0; i < gpus; i++ {
		name := fmt.Sprintf("tcp-gpu-%d", i)
		n, err := node.New(node.Options{
			Name:        name,
			Devices:     []device.Config{{Driver: sim.DriverGPU, ID: 1, Shared: true}},
			ICD:         icd,
			ExecWorkers: 1,
			Dialer:      transport.TCPDialer{},
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		srv := n.Serve()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		servers = append(servers, srv)
		cfg.Nodes = append(cfg.Nodes, haocl.NodeSpec{
			Name: name, Addr: addr,
			Devices: []haocl.DeviceSpec{{Type: "gpu", Shared: true}},
		})
	}
	p, err := haocl.Connect(cfg, haocl.WithClientName("bench-pipeline"))
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	attachTracer(p)
	return p, func() { p.Close(); cleanup() }, nil
}

// syncPoint waits for ev when the stream runs in synchronous mode.
func syncPoint(ev *haocl.Event, mode StreamMode) error {
	if mode != ModeSync || ev == nil {
		return nil
	}
	return ev.Wait()
}

// PipelineMatmul streams MatrixMul tiles across gpus nodes: for every
// tile, the host writes the A and B sub-blocks and launches the tile
// kernel — three commands per tile, the command-heavy shape that makes
// enqueue latency the bottleneck of a blocking protocol.
func PipelineMatmul(gpus, launches int, mode StreamMode, tcp bool) (PipelineRow, error) {
	row := PipelineRow{Workload: "MatrixMul", Transport: transportName(tcp), Mode: mode.String()}
	p, cleanup, err := pipelinePlatform(gpus, tcp)
	if err != nil {
		return row, err
	}
	defer cleanup()

	devs := p.Devices(haocl.GPU)
	ctx, err := p.CreateContext(devs)
	if err != nil {
		return row, err
	}
	prog, err := ctx.CreateProgram(matmul.Source)
	if err != nil {
		return row, err
	}
	if err := prog.Build(); err != nil {
		return row, err
	}

	const n = 8 // functional tile edge: tiny, so command traffic dominates
	tile := make([]float32, n*n)
	for i := range tile {
		tile[i] = float32(i%7) * 0.25
	}
	tileBytes := mem.F32Bytes(tile)
	// Model each launch as a paper-scale 1000³ tile so the virtual times
	// stay in the regime the figures report.
	costs := matmul.Cost(1000, 1000, 1000)
	opts := &haocl.LaunchOptions{CostFlops: costs.Flops, CostBytes: costs.Bytes}

	type deviceState struct {
		q    *haocl.Queue
		k    *haocl.Kernel
		a, b *haocl.Buffer
	}
	states := make([]deviceState, len(devs))
	for i, dev := range devs {
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			return row, err
		}
		a, err := ctx.CreateBuffer(int64(len(tileBytes)))
		if err != nil {
			return row, err
		}
		b, err := ctx.CreateBuffer(int64(len(tileBytes)))
		if err != nil {
			return row, err
		}
		c, err := ctx.CreateBuffer(int64(len(tileBytes)))
		if err != nil {
			return row, err
		}
		k, err := prog.CreateKernel("matmul")
		if err != nil {
			return row, err
		}
		for idx, v := range []any{a, b, c, int32(n), int32(n), int32(n)} {
			if err := k.SetArg(idx, v); err != nil {
				return row, err
			}
		}
		// Materialize the replicas up front so the measured stream is pure
		// command traffic, not first-touch buffer creation.
		if _, err := q.EnqueueWrite(a, 0, tileBytes); err != nil {
			return row, err
		}
		if _, err := q.EnqueueWrite(b, 0, tileBytes); err != nil {
			return row, err
		}
		if _, err := q.Finish(); err != nil {
			return row, err
		}
		states[i] = deviceState{q: q, k: k, a: a, b: b}
	}

	sw := startStopwatch()
	for _, st := range states {
		for t := 0; t < launches; t++ {
			evA, err := st.q.EnqueueWrite(st.a, 0, tileBytes)
			if err != nil {
				return row, err
			}
			if err := syncPoint(evA, mode); err != nil {
				return row, err
			}
			evB, err := st.q.EnqueueWrite(st.b, 0, tileBytes)
			if err != nil {
				return row, err
			}
			if err := syncPoint(evB, mode); err != nil {
				return row, err
			}
			// One work-group per tile: the in-order queue plus the buffer
			// chains order the launch behind its tile writes.
			ev, err := st.q.EnqueueKernel(st.k, []int{n, n}, []int{n, n}, nil, opts)
			if err != nil {
				return row, err
			}
			if err := syncPoint(ev, mode); err != nil {
				return row, err
			}
		}
	}
	for _, st := range states {
		if _, err := st.q.Finish(); err != nil {
			return row, err
		}
	}
	wall := sw.elapsed()

	row.Commands = int64(len(devs) * launches * 3)
	row.WallMS = float64(wall.Microseconds()) / 1000
	row.CmdsPerSec = float64(row.Commands) / wall.Seconds()
	row.VirtualSec = p.Metrics().Makespan.Seconds()
	return row, nil
}

// PipelineBFS issues a BFS-style frontier chain: one queue, levels
// dependent kernel launches in a row, each waiting on its predecessor —
// the worst case for a blocking protocol because nothing can overlap with
// the round trips.
func PipelineBFS(levels int, mode StreamMode, tcp bool) (PipelineRow, error) {
	row := PipelineRow{Workload: "BFS", Transport: transportName(tcp), Mode: mode.String()}
	p, cleanup, err := pipelinePlatform(1, tcp)
	if err != nil {
		return row, err
	}
	defer cleanup()

	devs := p.Devices(haocl.GPU)
	ctx, err := p.CreateContext(devs)
	if err != nil {
		return row, err
	}
	prog, err := ctx.CreateProgram(bfs.Source)
	if err != nil {
		return row, err
	}
	if err := prog.Build(); err != nil {
		return row, err
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		return row, err
	}

	g := bfs.GenerateTorus3D(4)
	bufOffsets, err := ctx.CreateBuffer(int64(4 * len(g.Offsets)))
	if err != nil {
		return row, err
	}
	bufEdges, err := ctx.CreateBuffer(int64(4 * len(g.Edges)))
	if err != nil {
		return row, err
	}
	bufLevels, err := ctx.CreateBuffer(int64(4 * g.V))
	if err != nil {
		return row, err
	}
	bufFlag, err := ctx.CreateBuffer(4)
	if err != nil {
		return row, err
	}
	if _, err := q.EnqueueWrite(bufOffsets, 0, mem.I32Bytes(g.Offsets)); err != nil {
		return row, err
	}
	if _, err := q.EnqueueWrite(bufEdges, 0, mem.I32Bytes(g.Edges)); err != nil {
		return row, err
	}

	kInit, err := prog.CreateKernel("bfs_init")
	if err != nil {
		return row, err
	}
	for i, v := range []any{bufLevels, int32(0), int32(g.V)} {
		if err := kInit.SetArg(i, v); err != nil {
			return row, err
		}
	}
	kFrontier, err := prog.CreateKernel("bfs_frontier")
	if err != nil {
		return row, err
	}
	for i, v := range []any{bufOffsets, bufEdges, bufLevels, bufFlag, int32(0), int32(g.V)} {
		if err := kFrontier.SetArg(i, v); err != nil {
			return row, err
		}
	}
	if _, err := q.Finish(); err != nil {
		return row, err
	}

	sw := startStopwatch()
	prev, err := q.EnqueueKernel(kInit, []int{g.V}, []int{g.V}, nil, nil)
	if err != nil {
		return row, err
	}
	if err := syncPoint(prev, mode); err != nil {
		return row, err
	}
	for level := 0; level < levels; level++ {
		// Argument bindings snapshot at enqueue, so the per-level scalar
		// can be rebound between pipelined launches.
		if err := kFrontier.SetArg(4, int32(level%16)); err != nil {
			return row, err
		}
		ev, err := q.EnqueueKernel(kFrontier, []int{g.V}, []int{g.V}, []*haocl.Event{prev}, nil)
		if err != nil {
			return row, err
		}
		if err := syncPoint(ev, mode); err != nil {
			return row, err
		}
		prev = ev
	}
	if _, err := q.Finish(); err != nil {
		return row, err
	}
	wall := sw.elapsed()

	row.Commands = int64(levels + 1)
	row.WallMS = float64(wall.Microseconds()) / 1000
	row.CmdsPerSec = float64(row.Commands) / wall.Seconds()
	row.VirtualSec = p.Metrics().Makespan.Seconds()
	return row, nil
}

func transportName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "mem"
}

// Comparison relates one mode's enqueue rate to a baseline mode on the
// same workload.
type Comparison struct {
	Workload     string  `json:"workload"`
	Baseline     string  `json:"baseline"`
	Mode         string  `json:"mode"`
	Speedup      float64 `json:"speedup"`
	VirtualMatch bool    `json:"virtual_match"` // virtual makespans identical, as required
	// BytesRatio is mode's wire bytes over the baseline's (chaos
	// experiment: the failure-injected leg's over the healthy leg's). Zero
	// (omitted) when the experiment does not track wire bytes.
	BytesRatio float64 `json:"bytes_ratio,omitempty"`
}

// Report is a machine-readable experiment result, the payload behind
// `haocl-bench -json` and the committed BENCH_*.json baselines.
type Report struct {
	Experiment  string        `json:"experiment"`
	Quick       bool          `json:"quick"`
	Rows        []PipelineRow `json:"rows"`
	Comparisons []Comparison  `json:"comparisons"`
}

// streamSizes returns the workload sizes for the command-stream
// experiment.
func streamSizes(quick bool) (gpus, launches, levels int) {
	if quick {
		return 2, 100, 150
	}
	return 4, 400, 600
}

// bestOf samples a cell several times and keeps the fastest run: the
// streams run a handful of milliseconds, so a single scheduler hiccup on a
// small machine can swamp one sample.
func bestOf(reps int, sample func() (PipelineRow, error)) (PipelineRow, error) {
	var best PipelineRow
	for i := 0; i < reps; i++ {
		r, err := sample()
		if err != nil {
			return r, err
		}
		if i == 0 || r.CmdsPerSec > best.CmdsPerSec {
			best = r
		}
	}
	return best, nil
}

// PipelineReport measures both workloads sync and pipelined on loopback
// TCP — the deployment shape where per-command round trips cost what the
// paper's GbE backbone charges (the in-process pipe harness keeps the modes
// equivalent and is not a meaningful baseline) — and compares pipelined
// against sync.
func PipelineReport(quick bool) (*Report, error) {
	gpus, launches, levels := streamSizes(quick)
	const tcp, reps = true, 3
	rep := &Report{Experiment: "pipeline", Quick: quick}

	type workload struct {
		name   string
		sample func(mode StreamMode) (PipelineRow, error)
	}
	workloads := []workload{
		{"MatrixMul", func(mode StreamMode) (PipelineRow, error) {
			return PipelineMatmul(gpus, launches, mode, tcp)
		}},
		{"BFS", func(mode StreamMode) (PipelineRow, error) {
			return PipelineBFS(levels, mode, tcp)
		}},
	}
	for _, wl := range workloads {
		base, err := bestOf(reps, func() (PipelineRow, error) { return wl.sample(ModeSync) })
		if err != nil {
			return nil, err
		}
		r, err := bestOf(reps, func() (PipelineRow, error) { return wl.sample(ModePipelined) })
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, base, r)
		rep.Comparisons = append(rep.Comparisons, Comparison{
			Workload: wl.name,
			Baseline: base.Mode,
			Mode:     r.Mode,
			Speedup:  r.CmdsPerSec / base.CmdsPerSec,
			// Virtual makespans are float64 seconds derived from integer
			// virtual nanoseconds; equality is exact.
			VirtualMatch: r.VirtualSec == base.VirtualSec,
		})
	}
	return rep, nil
}

// printReport renders a report the way the text experiments always have.
func printReport(w io.Writer, rep *Report) {
	for _, r := range rep.Rows {
		fmt.Fprintln(w, r)
	}
	for _, c := range rep.Comparisons {
		match := "virtual makespan unchanged"
		if !c.VirtualMatch {
			match = "VIRTUAL MAKESPAN DIVERGED"
		}
		extra := ""
		if c.BytesRatio > 0 {
			extra = fmt.Sprintf(", %.2fx wire bytes", c.BytesRatio)
		}
		fmt.Fprintf(w, "%s: %s enqueue rate %.1fx %s (%s%s)\n",
			c.Workload, c.Mode, c.Speedup, c.Baseline, match, extra)
	}
}

// Pipeline runs both workloads in sync and pipelined modes on loopback
// TCP and prints the comparison.
func Pipeline(w io.Writer, quick bool) error {
	gpus, launches, levels := streamSizes(quick)
	fmt.Fprintln(w, "=== Async command pipelining: sync vs pipelined enqueue ===")
	fmt.Fprintf(w, "(MatrixMul: %d tiles x 3 commands across %d GPU nodes; BFS: %d-level frontier chain)\n",
		gpus*launches, gpus, levels)
	fmt.Fprintln(w, "(loopback TCP nodes — the deployment shape where each blocked enqueue pays a real round trip)")
	rep, err := PipelineReport(quick)
	if err != nil {
		return err
	}
	printReport(w, rep)
	return nil
}
