// Package node implements HaoCL's Node Management Process (NMP): the daemon
// that runs on every device node, receives forwarded OpenCL API calls from
// the host's wrapper library, executes them against the node's devices
// through the ICD driver layer, and reports runtime status to the host's
// resource monitor (paper §III-D).
//
// One Node serves any number of sessions (connections); each session
// carries a user identity from its Hello handshake, and exclusive
// (non-shared) devices admit queues from only one user at a time.
//
// Cross-goroutine state follows one lock order, checked by haoclvet:
//
// lock-order: Session.mu < lane.mu < bufferObj.mu < rendezvous.mu < deviceStats.mu
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// bootCounter mints process-wide unique boot IDs. A restarted node is a
// fresh Node value, so it reports a fresh BootID in Hello responses. The
// host does not read it: a rejoining host re-creates everything, as on a
// fresh node, whether or not the process survived.
var bootCounter atomic.Uint64

// Options configures a Node.
type Options struct {
	// Name identifies the node in logs and handshakes.
	Name string
	// Devices lists the devices to open through the ICD.
	Devices []device.Config
	// ICD resolves device drivers. Required.
	ICD *device.ICD
	// ExecWorkers caps functional kernel-execution parallelism per
	// launch (0 = GOMAXPROCS). Experiment harnesses running many
	// simulated nodes in one process set this to 1.
	ExecWorkers int
	// Dialer lets this node dial sibling nodes for peer-to-peer PushRange
	// traffic (addresses are learned from the host at Hello time). Nil
	// disables peer dialing: PushRange commands then fail cleanly.
	Dialer transport.Dialer
}

// Node is one device node's management process.
type Node struct {
	name        string
	bootID      uint64
	devices     []device.Device
	stats       []*deviceStats
	execWorkers int
	dialer      transport.Dialer

	// nextID mints the synthetic IDs (synthBase up) of the objects and
	// events whose request named none: one counter, unique node-wide
	// although each object and event belongs to its session.
	nextID atomic.Uint64

	// nicOut models this node's Gigabit egress link: every peer-to-peer
	// push the node originates serializes through it in virtual time, the
	// node-side counterpart of the host's NIC model. Node-global because
	// the physical link is per node, not per connection.
	nicOut *vtime.Link

	// rdv pairs inbound peer-push deposits with host-issued AwaitPush
	// commands; node-global because the two sides arrive on different
	// sessions (see rendezvous).
	rdv *rendezvous

	// onShutdown is the callback OnShutdown registered, if any.
	onShutdown atomic.Pointer[func()]
}

// deviceStats is the per-device slice of the runtime monitor.
type deviceStats struct {
	mu          sync.Mutex
	busyUntil   vtime.Time     // guarded by mu
	queuedCmds  int64          // guarded by mu
	kernelsRun  int64          // guarded by mu
	flopsDone   float64        // guarded by mu
	bytesMoved  float64        // guarded by mu
	energyJ     float64        // guarded by mu
	users       map[string]int // guarded by mu; userID -> live queue count
	ewmaGFLOPS  float64        // guarded by mu
	ewmaKernSec float64        // guarded by mu
}

const ewmaAlpha = 0.25

func (s *deviceStats) observeKernel(flops, bytes int64, dur vtime.Duration, watts float64, end vtime.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kernelsRun++
	s.flopsDone += float64(flops)
	s.bytesMoved += float64(bytes)
	sec := dur.Seconds()
	s.energyJ += watts * sec
	if end > s.busyUntil {
		s.busyUntil = end
	}
	if sec > 0 {
		rate := float64(flops) / sec / 1e9
		if s.ewmaGFLOPS == 0 {
			s.ewmaGFLOPS = rate
		} else {
			s.ewmaGFLOPS = ewmaAlpha*rate + (1-ewmaAlpha)*s.ewmaGFLOPS
		}
		if s.ewmaKernSec == 0 {
			s.ewmaKernSec = sec
		} else {
			s.ewmaKernSec = ewmaAlpha*sec + (1-ewmaAlpha)*s.ewmaKernSec
		}
	}
}

func (s *deviceStats) observeTransfer(bytes int64, watts float64, dur vtime.Duration, end vtime.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesMoved += float64(bytes)
	s.energyJ += watts * dur.Seconds()
	if end > s.busyUntil {
		s.busyUntil = end
	}
}

func (s *deviceStats) snapshot(id uint32) protocol.DeviceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return protocol.DeviceStatus{
		DeviceID:      id,
		BusyUntil:     int64(s.busyUntil),
		QueuedCmds:    s.queuedCmds,
		KernelsRun:    s.kernelsRun,
		FlopsDone:     s.flopsDone,
		BytesMoved:    s.bytesMoved,
		EnergyJ:       s.energyJ,
		ActiveUsers:   int64(len(s.users)),
		EWMAGFLOPS:    s.ewmaGFLOPS,
		EWMAKernelSec: s.ewmaKernSec,
	}
}

// New opens the configured devices and returns a ready Node.
func New(opts Options) (*Node, error) {
	if opts.ICD == nil {
		return nil, fmt.Errorf("node %q: ICD registry required", opts.Name)
	}
	if len(opts.Devices) == 0 {
		return nil, fmt.Errorf("node %q: at least one device required", opts.Name)
	}
	n := &Node{
		name:        opts.Name,
		bootID:      bootCounter.Add(1),
		execWorkers: opts.ExecWorkers,
		dialer:      opts.Dialer,
		nicOut:      vtime.NewLink(sim.MessageLatency, sim.GigabitBytesPerSec),
		rdv:         newRendezvous(),
	}
	for i, cfg := range opts.Devices {
		if cfg.ID == 0 {
			cfg.ID = uint32(i + 1)
		}
		if cfg.Workers == 0 {
			cfg.Workers = opts.ExecWorkers
		}
		dev, err := opts.ICD.Open(cfg)
		if err != nil {
			return nil, fmt.Errorf("node %q: %w", opts.Name, err)
		}
		n.devices = append(n.devices, dev)
		n.stats = append(n.stats, &deviceStats{users: make(map[string]int)})
	}
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Devices returns the opened devices, indexed by position.
func (n *Node) Devices() []device.Device { return n.devices }

// deviceByID resolves a node-local device ID.
func (n *Node) deviceByID(id uint32) (device.Device, *deviceStats, error) {
	for i, d := range n.devices {
		if d.Info().ID == id {
			return d, n.stats[i], nil
		}
	}
	return nil, nil, remoteErr(protocol.CodeUnknownObject, "no device with ID %d on node %q", id, n.name)
}

// DeviceInfos lists the node's devices in wire form, optionally filtered by
// a device-type bitmask.
func (n *Node) DeviceInfos(typeMask uint8) []protocol.DeviceInfo {
	var infos []protocol.DeviceInfo
	for _, d := range n.devices {
		info := d.Info()
		if typeMask != 0 && typeMask&(1<<uint8(info.Type)) == 0 {
			continue
		}
		infos = append(infos, info.Proto())
	}
	return infos
}

// Status snapshots the runtime monitor for every device.
func (n *Node) Status() []protocol.DeviceStatus {
	out := make([]protocol.DeviceStatus, len(n.devices))
	for i, d := range n.devices {
		out[i] = n.stats[i].snapshot(d.Info().ID)
	}
	return out
}

// OnShutdown registers a callback invoked when a session issues Shutdown.
func (n *Node) OnShutdown(f func()) { n.onShutdown.Store(&f) }

func (n *Node) shutdown() {
	if f := n.onShutdown.Load(); f != nil && *f != nil {
		go (*f)()
	}
}

// NewSession returns a transport handler bound to one connection. The
// session implements transport.AsyncHandler: the transport's dispatch
// goroutine registers commands in arrival order and per-queue lanes
// execute them concurrently.
func (n *Node) NewSession() transport.Handler { return newSession(n) }

// Serve returns a transport server for this node.
func (n *Node) Serve() *transport.Server {
	return transport.NewServer(func() transport.Handler { return n.NewSession() })
}

// remoteErr builds a protocol error with a code the host can match on.
func remoteErr(code uint32, format string, args ...any) error {
	return &protocol.RemoteError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// wrapRemote is remoteErr around err, with err's code. The host names the
// op and the code, so a RemoteError contributes its message alone.
func wrapRemote(err error, format string, args ...any) error {
	code, msg := protocol.CodeInternal, err.Error()
	var re *protocol.RemoteError
	if errors.As(err, &re) {
		code, msg = re.Code, re.Message
	}
	return remoteErr(code, "%s: %s", fmt.Sprintf(format, args...), msg)
}
