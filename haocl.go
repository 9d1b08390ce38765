// Package haocl is a heterogeneity-aware, OpenCL-like programming framework
// for clusters of CPUs, GPUs and FPGAs, reproducing the system described in
// "HaoCL: Harnessing Large-scale Heterogeneous Processors Made Easy"
// (ICDCS 2020).
//
// A HaoCL application is an ordinary OpenCL host program: it discovers
// devices, creates a context, queues, buffers and kernels, and enqueues
// NDRange launches. The difference is that the devices may live on any
// node of a cluster — the wrapper library packages each API call into a
// message, ships it over the asynchronous communication backbone to the
// Node Management Process that owns the device, and transparently migrates
// buffers between nodes. An extensible scheduling component places
// task-graph kernels onto devices using built-in or user-supplied policies.
//
// The OpenCL object model maps directly:
//
//	clGetDeviceIDs            → Platform.Devices
//	clCreateContext           → Platform.CreateContext
//	clCreateCommandQueue      → Context.CreateQueue
//	clCreateBuffer            → Context.CreateBuffer
//	clCreateProgramWithSource → Context.CreateProgram
//	clBuildProgram            → Program.Build
//	clCreateKernel            → Program.CreateKernel
//	clSetKernelArg            → Kernel.SetArg
//	clEnqueueWriteBuffer      → Queue.EnqueueWrite
//	clEnqueueNDRangeKernel    → Queue.EnqueueKernel
//	clEnqueueReadBuffer       → Queue.EnqueueRead
//	clFinish                  → Queue.Finish
//	clWaitForEvents           → Event.Wait
//	clGetEventProfilingInfo   → Event.Profile
//
// Enqueue operations are pipelined, matching the paper's asynchronous
// communication backbone (§III-C): they return once the command is on the
// wire, per-queue ordering is preserved end to end, and Event.Wait,
// Event.Profile and Queue.Finish are the synchronization points where
// completions — and any command failure, which is sticky per queue —
// surface. See DESIGN.md §2 for the pipeline invariants.
//
// One connected Platform can serve many tenants at once. Each tenant opens
// a Session — an isolated object namespace with its own metrics, sticky
// errors and scheduling policy over the shared cluster substrate
// (DESIGN.md §8):
//
//	Platform.OpenSession      → per-tenant session
//	Session.CreateContext     → contexts owned by this session
//	Session.Metrics           → this tenant's virtual-time accounting
//	Session.Flush             → drain this tenant's in-flight work
//	Session.SetPolicy         → this tenant's scheduling policy
//	Session.Close             → tear the session down
//
// Objects never cross sessions: enqueueing a buffer, kernel or wait event
// owned by another session fails with core.ErrCrossSession. Connect opens
// one session, the tenant "default", and the Platform keeps it: the
// Platform-level CreateContext and ModelDataCreate helpers use it, so a
// single-tenant program never names a session. Platform.Metrics is the
// aggregate over every session.
//
// Kernel bodies are Go work-item functions registered against the kernel
// names appearing in OpenCL C program source (see RegisterKernel); devices
// are simulated with calibrated performance models, and all reported times
// are virtual (see DESIGN.md).
package haocl

import (
	"fmt"
	"io"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/profile"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// Core object types, exposed as aliases so the full method sets defined in
// the runtime are part of the public API.
type (
	// Device is one compute device somewhere in the cluster.
	Device = core.DeviceRef
	// Context is a cluster-wide OpenCL context.
	Context = core.Context
	// Queue is an in-order command queue on one device.
	Queue = core.Queue
	// Buffer is a cluster-wide memory object with automatic migration.
	Buffer = core.Buffer
	// Program is OpenCL C program source plus its per-node builds.
	Program = core.Program
	// Kernel is one kernel instantiated from a built program.
	Kernel = core.Kernel
	// Event is a completed command with virtual-time profiling info.
	Event = core.Event
	// TaskGraph is a schedulable DAG of kernel launches.
	TaskGraph = core.TaskGraph
	// GraphTask is one node of a TaskGraph.
	GraphTask = core.GraphTask
	// LaunchOptions tunes one kernel launch.
	LaunchOptions = core.LaunchOptions
	// LocalSpace requests per-work-group local memory in Kernel.SetArg.
	LocalSpace = core.LocalSpace
	// Session is one tenant's isolated view of the shared cluster.
	Session = core.Session
	// Metrics is the virtual-time accounting of a run.
	Metrics = core.Metrics
	// Tracer collects deterministic virtual-time span trees (DESIGN.md §10).
	Tracer = trace.Tracer
	// TraceRun is one tracer attachment — a Perfetto process group.
	TraceRun = trace.Run
	// Span is one recorded trace interval.
	Span = trace.Span
	// DeviceKey names a device cluster-wide.
	DeviceKey = profile.DeviceKey
	// DeviceStatus is the resource monitor's live view of one device.
	DeviceStatus = profile.DeviceView
	// Time is an instant of virtual time.
	Time = vtime.Time
	// Duration is a span of virtual time.
	Duration = vtime.Duration
)

// DeviceType selects a hardware class.
type DeviceType = protocol.DeviceType

// Device types.
const (
	CPU  = protocol.DeviceCPU
	GPU  = protocol.DeviceGPU
	FPGA = protocol.DeviceFPGA
)

// AnyDevice matches every device type in Platform.Devices.
const AnyDevice DeviceType = 0

// Platform is the application's entry point: one connected HaoCL cluster
// presenting all remote devices as a single OpenCL platform.
type Platform struct {
	rt   *core.Runtime
	sess *Session // the tenant "default", opened by Connect
}

// options collects Connect configuration.
type options struct {
	policy     Policy
	clientName string
	dialer     transport.Dialer
}

// Option configures Connect.
type Option func(*options)

// WithPolicy sets the default scheduling policy for task graphs.
func WithPolicy(p Policy) Option {
	return func(o *options) { o.policy = p }
}

// WithClientName labels this host program in node logs.
func WithClientName(name string) Option {
	return func(o *options) { o.clientName = name }
}

// withDialer overrides the transport (used by StartLocalCluster).
func withDialer(d transport.Dialer) Option {
	return func(o *options) { o.dialer = d }
}

// Connect dials every node in the cluster configuration over TCP and
// returns the unified platform.
func Connect(cfg *ClusterConfig, opts ...Option) (*Platform, error) {
	o := options{dialer: transport.TCPDialer{}, clientName: "haocl-app"}
	for _, opt := range opts {
		opt(&o)
	}
	if cfg == nil {
		return nil, fmt.Errorf("haocl: nil cluster config")
	}
	rt, err := core.Connect(core.Options{
		Config:     cfg,
		Dialer:     o.dialer,
		Policy:     o.policy,
		ClientName: o.clientName,
	})
	if err != nil {
		return nil, err
	}
	return &Platform{rt: rt, sess: rt.OpenSession("default")}, nil
}

// Devices lists cluster devices of the given type (AnyDevice for all),
// the clGetDeviceIDs of the unified platform.
func (p *Platform) Devices(t DeviceType) []*Device { return p.rt.Devices(t) }

// CreateContext builds a context over devices anywhere in the cluster,
// owned by the platform's session.
func (p *Platform) CreateContext(devices []*Device) (*Context, error) {
	return p.sess.CreateContext(devices)
}

// FloorEvent returns a synthetic, already-complete event at virtual
// instant t. Passing it in a wait list keeps a command from starting
// before t — open-loop load generators use it to model job arrival times.
func FloorEvent(t Time) *Event { return core.FloorEvent(t) }

// OpenSession opens an isolated tenant session on the shared cluster.
// Sessions are cheap: they share node connections, device handles and the
// virtual-time network model, but keep their own object namespace, metrics,
// sticky errors and scheduling policy (DESIGN.md §8).
func (p *Platform) OpenSession(tenant string) *Session {
	return p.rt.OpenSession(tenant)
}

// Metrics returns the run's virtual-time accounting so far, aggregated over
// every session — the platform's own and each OpenSession tenant
// (Session.Metrics is one tenant's view).
func (p *Platform) Metrics() Metrics { return p.rt.Metrics() }

// NewTracer returns an empty tracer ready to attach with SetTracer.
func NewTracer() *Tracer { return trace.New() }

// SetTracer attaches a tracer to the platform: every command any session
// issues records its deterministic span tree until the tracer is swapped
// out (SetTracer(nil) detaches). One attachment is one TraceRun — a
// separate Perfetto process group in the export. Tracing is zero-cost on
// the enqueue path while detached.
func (p *Platform) SetTracer(t *Tracer) *TraceRun { return p.rt.SetTracer(t) }

// WriteTrace exports everything the attached tracer recorded as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
func (p *Platform) WriteTrace(w io.Writer) error { return p.rt.WriteTrace(w) }

// WriteMetrics writes a Prometheus-text snapshot of the platform's
// counters, per-device monitor gauges and — when a tracer is attached —
// per-span-kind latency histograms.
func (p *Platform) WriteMetrics(w io.Writer) error { return p.rt.WriteMetrics(w) }

// ModelDataCreate charges host-side materialization of n bytes of input
// data in the virtual-time model and returns the instant it completes.
// Call it after generating benchmark inputs (Fig. 3 "DataCreate"). The
// charge is booked to the platform's session.
func (p *Platform) ModelDataCreate(n int64) Time { return p.sess.ModelDataCreate(n) }

// PollStatus refreshes the resource monitor from every node.
func (p *Platform) PollStatus() error { return p.rt.PollStatus() }

// Status returns the resource monitor's view of every device, as of the
// last PollStatus: what the scheduler sees when it ranks devices.
func (p *Platform) Status() []DeviceStatus { return p.rt.Monitor().Snapshot() }

// TotalEnergy reports cluster energy consumed so far, in joules.
func (p *Platform) TotalEnergy() (float64, error) { return p.rt.TotalEnergy() }

// Close disconnects from every node.
func (p *Platform) Close() error { return p.rt.Close() }

// DeviceSpec describes one device in a cluster configuration: its Type
// ("cpu", "gpu" or "fpga"), an optional hardware Model preset, whether it
// is Shared between users, and an FPGA's pre-built Bitstreams.
type DeviceSpec = cluster.DeviceSpec

// NodeSpec describes one device node: its Name, Addr and Devices.
type NodeSpec = cluster.NodeSpec

// ClusterConfig describes a HaoCL cluster: the system configuration file
// of paper §III-C.
type ClusterConfig = cluster.Config

// LoadClusterConfig reads a JSON cluster configuration file.
func LoadClusterConfig(path string) (*ClusterConfig, error) { return cluster.Load(path) }

// ShutdownCluster asks every Node Management Process to drain and exit,
// then disconnects — the orderly teardown for dedicated clusters started
// with cmd/haocl-node.
func (p *Platform) ShutdownCluster() error { return p.rt.ShutdownCluster() }
