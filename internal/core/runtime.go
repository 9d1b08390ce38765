// Package core implements HaoCL's host-side runtime: the engine behind the
// public wrapper API in package haocl.
//
// It owns the connections to every Node Management Process, the global
// device table assembled from their handshakes (the clGetDeviceIDs mapping
// mechanism of paper §III-C), buffer placement and migration across nodes,
// the virtual-time network model for the Gigabit Ethernet backbone, and the
// task-graph scheduler that places kernels through pluggable policies.
//
// The package is checked by cmd/haoclvet (see DESIGN.md §9):
//
// haoclvet:deterministic
// haoclvet:errclass
//
// and its object locks nest in one documented order, innermost last:
//
// lock-order: Runtime.recoverMu < Session.recGate < Buffer.mu < Context.mu < Queue.mu < Kernel.mu < Program.mu < Session.mu < cmdLog.mu
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/profile"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sched"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// controlMsgBytes approximates the wire size of a control message (no bulk
// payload) for the network model.
const controlMsgBytes = 256

// Options configures a runtime.
type Options struct {
	// Config describes the cluster. Required.
	Config *cluster.Config
	// Dialer reaches the nodes; TCPDialer for real clusters, a MemNetwork
	// for in-process ones. Required.
	Dialer transport.Dialer
	// Policy is the default scheduling policy for task graphs. Optional;
	// defaults to the heterogeneity-aware policy.
	Policy sched.Policy
	// ClientName labels this host in node logs.
	ClientName string
}

// Node liveness states (NodeHandle.state). A handle is alive while its
// connection works, flips to dead the instant the transport reports the
// connection down (OnDown), and moves to removed once recovery has
// re-placed its work on survivors. ReconnectNode moves removed → alive.
const (
	stateAlive int32 = iota
	stateDead
	stateRemoved
)

// NodeHandle is one connected device node.
type NodeHandle struct {
	name string
	addr string

	// client is the node's pooled connection. It is an atomic pointer
	// because ReconnectNode swaps it for a fresh dial while concurrent
	// session goroutines issue commands through it: a racing caller loads
	// either the old (closed, failing cleanly) or the new client, never a
	// torn handle.
	client atomic.Pointer[transport.Client]

	// state is the handle's liveness (stateAlive/stateDead/stateRemoved);
	// the transport's OnDown hook flips alive → dead, recovery dead →
	// removed, rejoin removed → alive.
	state atomic.Int32

	// left is the membership epoch under which recovery last removed the
	// node (0: never). A session whose epoch is older and whose contexts
	// span the node owes a replay (Session.owesReplay).
	left uint64 // guarded by Runtime.recoverMu

	// issueMu makes (event ID assignment, frame write) atomic so that wire
	// order equals event-ID order — the ordering contract the node's FIFO
	// dispatch turns into in-order command execution. eventID counts the
	// host-assigned completion-event IDs for this connection. The counter
	// survives reconnects: a restarted node has no old event records, so
	// continuing the sequence keeps IDs unique without coordination.
	issueMu sync.Mutex
	eventID uint64 // guarded by issueMu
}

// Name returns the node's configured name.
func (n *NodeHandle) Name() string { return n.name }

// Alive reports whether the node's connection is currently believed good.
func (n *NodeHandle) Alive() bool { return n.state.Load() == stateAlive }

// DeviceRef is one device in the cluster-wide table.
type DeviceRef struct {
	node *NodeHandle
	info protocol.DeviceInfo
	key  profile.DeviceKey
}

// Info returns the device's descriptor.
func (d *DeviceRef) Info() protocol.DeviceInfo { return d.info }

// Node returns the owning node.
func (d *DeviceRef) Node() *NodeHandle { return d.node }

// Key returns the device's cluster-wide key.
func (d *DeviceRef) Key() profile.DeviceKey { return d.key }

// Metrics aggregates the virtual-time accounting for one run, feeding the
// Fig. 3 breakdown (DataCreate / DataTransfer / ComputeTime) and the Fig. 2
// end-to-end times.
type Metrics struct {
	// DataCreate is host-side input materialization time.
	DataCreate vtime.Duration
	// Transfer is total occupancy of the host's network interface.
	Transfer vtime.Duration
	// ComputeBusy is per-device busy time executing kernels.
	ComputeBusy map[profile.DeviceKey]vtime.Duration
	// Makespan is the latest virtual completion instant observed.
	Makespan vtime.Time
	// Commands counts protocol round trips.
	Commands int64
	// WireBytes counts total modeled wire traffic, both directions: the
	// sum of HostWireBytes and PeerWireBytes.
	WireBytes int64
	// HostWireBytes counts modeled bytes through the host NIC — the
	// number the p2p data plane shrinks to ~control-frame traffic, since
	// host-planned node→node pushes never cross the host link.
	HostWireBytes int64
	// PeerWireBytes counts modeled bytes over node↔node links (migration
	// pushes and broadcast forwarding hops). These never contend with the
	// host NIC and are excluded from the Transfer occupancy metric.
	PeerWireBytes int64
	// Recoveries counts node-loss recoveries. The runtime counts membership
	// steps that moved dead nodes out; a session counts its replays.
	Recoveries int64
	// ReplayedCommands counts log entries re-issued across all recoveries.
	ReplayedCommands int64
	// LogEntries and LogBytes are gauges, not totals: the command-log
	// entries that a recovery would replay right now and the payload bytes
	// they hold (Runtime.Metrics sums them over the open sessions). Both
	// are functions of the command stream alone.
	LogEntries int64
	LogBytes   int64
}

// Compute reports the busiest device's kernel time: with the workload
// data-partitioned evenly, this is the compute component of the critical
// path.
func (m *Metrics) Compute() vtime.Duration {
	var max vtime.Duration
	for _, d := range m.ComputeBusy {
		if d > max {
			max = d
		}
	}
	return max
}

// TotalCompute sums kernel time across devices.
func (m *Metrics) TotalCompute() vtime.Duration {
	var sum vtime.Duration
	for _, d := range m.ComputeBusy {
		sum += d
	}
	return sum
}

// Runtime is the host-side engine: the cluster substrate shared by every
// session. It owns the node connections, the device table, the virtual-time
// links, crash recovery and tracing; all per-tenant state — object
// namespaces, event tracking, release drains, command logs, policy, metrics
// — lives on Session, and every object is created through one.
// Runtime.Metrics, Flush and WriteMetrics cover every open session.
type Runtime struct {
	userID        string
	clientName    string
	defaultPolicy sched.Policy
	dialer        transport.Dialer

	nodes   []*NodeHandle
	devices []*DeviceRef
	monitor *profile.Monitor

	// closing suppresses the OnDown → dead transition during orderly
	// teardown, so Close does not look like a cluster-wide crash.
	closing atomic.Bool

	// gen is the recovery generation: bumped by every membership step and
	// every replay. Events stamp the generation they were issued under; an
	// event from an older generation is never referenced on the wire again
	// (its node-side record may be gone or poisoned) and its failure is
	// absolved — the replay re-established its effect.
	gen atomic.Uint64

	// objectID names every context, queue, buffer, program and kernel the
	// runtime's sessions create (newObjectID). One counter for the whole
	// runtime: sessions share its connections, and a node files every
	// object of a connection in one table, under the host's name.
	objectID atomic.Uint64

	// epoch is the membership generation shipped in Hello requests. Every
	// death or (re)join bumps it; nodes that see a higher epoch drop their
	// pooled peer connections and cancel parked push rendezvous. Written
	// under recoverMu; a session compares its own epoch with it lock-free.
	epoch atomic.Uint64

	// recoverMu serializes recovery and rejoin: membership steps and
	// session catch-ups (Session.recGate is taken under it). CreateContext,
	// CreateQueue and Build hold its read side: a rejoin's re-creates
	// (restoreOn) never race a user's create, so each is made once.
	recoverMu sync.RWMutex

	// trc is the runtime-level tracing attachment (nil = tracing off);
	// one Run per SetTracer call. Atomic so the hot enqueue path reads it
	// lock-free.
	trc atomic.Pointer[trace.Run]

	nicOut  *vtime.Link // host NIC egress (paper: single host node)
	nicIn   *vtime.Link // host NIC ingress (full-duplex GbE)
	hostMem *vtime.Link // host data-creation resource

	// pushToken mints the cluster-unique rendezvous tokens that pair each
	// node-to-node PushRange with its AwaitPush.
	pushToken atomic.Uint64

	// mu guards the session registry and the aggregate metrics (the sum
	// over all sessions, which Runtime.Metrics reports).
	mu         sync.Mutex
	sessions   []*Session // guarded by mu
	nextSessID uint64     // guarded by mu
	metrics    Metrics    // guarded by mu
}

// Connect dials every node in the configuration, performs the Hello
// handshake, and assembles the global device table.
func Connect(opts Options) (*Runtime, error) {
	if opts.Config == nil || opts.Dialer == nil {
		return nil, fmt.Errorf("core: Config and Dialer are required")
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	policy := opts.Policy
	if policy == nil {
		policy = sched.HeteroAware{}
	}
	rt := &Runtime{
		userID:        opts.Config.UserID,
		clientName:    opts.ClientName,
		defaultPolicy: policy,
		dialer:        opts.Dialer,
		monitor:       profile.NewMonitor(),
		nicOut:        sim.NewHostNIC(),
		nicIn:         sim.NewHostNIC(),
		hostMem:       sim.NewHostMemory(),
	}
	rt.epoch.Store(1)
	rt.metrics.ComputeBusy = make(map[profile.DeviceKey]vtime.Duration)

	// Ship the full topology with every Hello so nodes can dial each other
	// for direct peer-to-peer pushes (the host plans, nodes move data).
	peers := make([]protocol.PeerAddr, 0, len(opts.Config.Nodes))
	for _, spec := range opts.Config.Nodes {
		peers = append(peers, protocol.PeerAddr{Name: spec.Name, Addr: spec.Addr})
	}

	// Every node is dialed and sent its Hello before any reply is awaited,
	// so connecting costs one round trip, not one per node.
	req := rt.helloReq(peers, rt.epoch.Load())
	nodes := make([]*NodeHandle, 0, len(opts.Config.Nodes))
	calls := make([]transport.Pending, len(opts.Config.Nodes))
	resps := make([]protocol.HelloResp, len(opts.Config.Nodes))
	fail := func(err error) (*Runtime, error) {
		for _, nh := range nodes {
			nh.client.Load().Close()
		}
		return nil, err
	}
	for i, spec := range opts.Config.Nodes {
		client, err := opts.Dialer.Dial(spec.Addr)
		if err != nil {
			return fail(fmt.Errorf("core: connect node %q: %w", spec.Name, err))
		}
		nh := &NodeHandle{name: spec.Name, addr: spec.Addr}
		nh.client.Store(client)
		nodes = append(nodes, nh)
		client.Start(&calls[i], &req, &resps[i])
	}
	for i, nh := range nodes {
		if err := calls[i].Wait(); err != nil {
			return fail(fmt.Errorf("core: handshake with node %q: %w", nh.name, classifyNodeErr(nh, err)))
		}
	}
	for i, nh := range nodes {
		rt.watchNode(nh, nh.client.Load())
		rt.nodes = append(rt.nodes, nh)
		for _, info := range resps[i].Devices {
			ref := &DeviceRef{
				node: nh,
				info: info,
				key:  profile.DeviceKey{Node: nh.name, DeviceID: info.ID},
			}
			rt.devices = append(rt.devices, ref)
			rt.monitor.RegisterDevice(nh.name, info)
		}
	}
	if len(rt.devices) == 0 {
		rt.Close()
		return nil, fmt.Errorf("core: cluster exposes no devices")
	}
	return rt, nil
}

// helloReq is the Hello the host sends a node when it connects, rejoins
// it or re-hellos it: the host's identity, the address book peers and the
// membership epoch.
func (rt *Runtime) helloReq(peers []protocol.PeerAddr, epoch uint64) protocol.HelloReq {
	return protocol.HelloReq{UserID: rt.userID, ClientName: rt.clientName,
		WireVersion: protocol.Version, Peers: peers, Epoch: epoch}
}

// watchNode installs the crash detector: the transport invokes the hook
// exactly once when the connection dies, before any pending future
// unblocks, so every failure a caller observes afterwards classifies as
// node loss. Orderly Close is not a crash.
func (rt *Runtime) watchNode(nh *NodeHandle, client *transport.Client) {
	client.OnDown(func(error) {
		if rt.closing.Load() {
			return
		}
		nh.state.CompareAndSwap(stateAlive, stateDead)
	})
}

// ShutdownCluster asks every Node Management Process to drain and exit,
// then closes the connections — the orderly teardown of a dedicated
// cluster (cmd/haocl-node exits on this signal).
func (rt *Runtime) ShutdownCluster() error {
	// Releases still held back must reach the nodes ahead of the shutdown
	// request, which no session sends.
	firstErr := rt.drainReleases()
	for _, n := range rt.nodes {
		if err := rt.call(n, &protocol.ShutdownReq{}, nil); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: shutdown %q: %w", n.name, err)
		}
	}
	if err := rt.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// drainReleases drains every session's outstanding releases and reports
// the first sticky release error it finds.
func (rt *Runtime) drainReleases() error {
	var firstErr error
	for _, s := range rt.allSessions() {
		if err := s.drainReleases(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close shuts every node connection down, draining every session's
// outstanding releases first so their failures are reported instead of
// dying with the sockets.
func (rt *Runtime) Close() error {
	rt.closing.Store(true)
	firstErr := rt.drainReleases()
	for _, n := range rt.nodes {
		if err := n.client.Load().Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Devices lists every device in the cluster, optionally filtered by type
// (0 lists all) — the unified platform view the wrapper library exposes
// through clGetDeviceIDs. Devices on nodes that crashed (and have not
// rejoined) are hidden: the scheduler must not place work there.
func (rt *Runtime) Devices(t protocol.DeviceType) []*DeviceRef {
	var out []*DeviceRef
	for _, d := range rt.devices {
		if !d.node.Alive() {
			continue
		}
		if t == 0 || d.info.Type == t {
			out = append(out, d)
		}
	}
	return out
}

// Monitor exposes the runtime resource monitor.
func (rt *Runtime) Monitor() *profile.Monitor { return rt.monitor }

// call performs one protocol round trip and counts it. Object lifecycle
// operations (creates, builds, releases, status polls) stay synchronous:
// they are control-path and their results are needed immediately. The
// result is classified so callers' recovery decisions (shouldRecover in
// withRecovery, rehelloLocked) see node loss rather than a raw transport
// error.
//
// haoclvet:wire
func (rt *Runtime) call(n *NodeHandle, req protocol.Message, resp protocol.Message) error {
	rt.mu.Lock()
	rt.metrics.Commands++
	rt.mu.Unlock()
	return classifyNodeErr(n, n.client.Load().Call(req, resp))
}

// maxPendingReleases bounds the un-reaped fire-and-forget Release
// messages (each a vector of IDs): a long-running host that releases
// objects but never hits a Flush/Close must not grow the pending list
// without limit, so crossing the threshold drains it in place. The acks
// being waited on were pipelined long ago, so the amortized cost stays far
// below one round trip per message.
const maxPendingReleases = 256

// Flush resolves every session's outstanding pipelined commands and
// releases, waiting for the in-flight responses. Command failures do not
// surface here; they stay sticky on their queues and are reported by the
// next Finish/Wait on them. Release failures have no queue to stick to, so
// Flush returns the first session's sticky release error it finds
// (Session.Flush scopes it to one tenant).
func (rt *Runtime) Flush() error {
	var firstErr error
	for _, s := range rt.allSessions() {
		if err := s.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// newObjectID names one object. The object keeps the name on every node
// it is created on, across recoveries and rejoins: no name is ever given
// twice, so it is free in every connection's table.
func (rt *Runtime) newObjectID() uint64 { return rt.objectID.Add(1) }

// Metrics returns a copy of the run's accumulated accounting aggregated
// over every session (per-tenant numbers come from Session.Metrics). It is a
// synchronization point: outstanding pipelined commands are drained first
// so the numbers cover every command issued so far.
func (rt *Runtime) Metrics() Metrics {
	rt.Flush()
	rt.mu.Lock()
	out := rt.metrics
	out.ComputeBusy = make(map[profile.DeviceKey]vtime.Duration, len(rt.metrics.ComputeBusy))
	for k, v := range rt.metrics.ComputeBusy {
		out.ComputeBusy[k] = v
	}
	rt.mu.Unlock()
	for _, s := range rt.allSessions() {
		entries, bytes := s.log.stats()
		out.LogEntries += entries
		out.LogBytes += bytes
	}
	return out
}

// PollStatus refreshes the monitor from every node, as the periodic
// profiling pull the scheduler relies on. The polls fan out as pipelined
// futures — one blocking round trip per node would make monitor freshness
// degrade linearly with cluster size, and a single slow node would stall
// the whole poll. Nodes that answer update the monitor even when others
// fail; the failures come back aggregated.
func (rt *Runtime) PollStatus() error {
	type poll struct {
		node *NodeHandle
		resp protocol.NodeStatusResp
		pend *transport.Pending
	}
	polls := make([]*poll, 0, len(rt.nodes))
	var errs []error
	for _, n := range rt.nodes {
		switch n.state.Load() {
		case stateRemoved:
			// Recovered away: not a member until it rejoins, so its
			// absence is expected, not a failure.
			continue
		case stateDead:
			// Detected down but not yet recovered: the poll is where the
			// operator learns about it.
			errs = append(errs, fmt.Errorf("core: status poll %q: %w", n.name, errNodeLost))
			continue
		}
		p := &poll{node: n}
		rt.mu.Lock()
		rt.metrics.Commands++
		rt.mu.Unlock()
		p.pend = n.client.Load().Go(&protocol.NodeStatusReq{}, &p.resp)
		polls = append(polls, p)
	}
	for _, p := range polls {
		// Classify before wrapping: a node that died mid-poll should
		// surface as node loss, exactly as one already marked dead above.
		if err := classifyNodeErr(p.node, p.pend.Wait()); err != nil {
			errs = append(errs, fmt.Errorf("core: status poll %q: %w", p.node.name, err))
			continue
		}
		rt.monitor.UpdateStatus(p.node.name, p.resp.Devices)
	}
	return errors.Join(errs...)
}

// TotalEnergy polls the cluster and reports consumed energy in joules.
func (rt *Runtime) TotalEnergy() (float64, error) {
	if err := rt.PollStatus(); err != nil {
		return 0, err
	}
	return rt.monitor.TotalEnergy(), nil
}
