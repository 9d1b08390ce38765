// Package inproc serves a cluster's nodes, real NMPs, in this process on an
// in-memory network or loopback TCP, and kills, crashes and reboots them by
// name; hosts connect through Nodes.Config and Nodes.Dialer. It links the
// node, which internal/cluster, imported by the host runtime, must not.
package inproc

import (
	"fmt"
	"slices"
	"sync"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// Options configures Serve.
type Options struct {
	// TCP serves each node on a loopback port of its own, ignoring the
	// configured address; otherwise they bind it on a MemNetwork.
	TCP bool
	// ExecWorkers is each node's node.Options.ExecWorkers.
	ExecWorkers int
	// Wrap, when set, stands in front of every session node i accepts.
	Wrap func(i int, h transport.Handler) transport.Handler
}

// Nodes is a served cluster, safe for concurrent use. Killing a node from
// its own handler must happen on another goroutine: closing a server waits
// for its handlers.
type Nodes struct {
	// Config is the caller's config, copied, with the TCP addresses bound.
	Config *cluster.Config
	// Dialer reaches the nodes, and they reach their peers through it.
	Dialer transport.Dialer

	opts Options
	icd  *device.ICD
	net  *transport.MemNetwork // nil under TCP

	mu   sync.Mutex
	srvs []*transport.Server // guarded by mu; each node's server, nil while down
}

// Serve boots every node of cfg with the kernels of reg and serves them.
func Serve(cfg *cluster.Config, reg *kernel.Registry, opts Options) (*Nodes, error) {
	c := *cfg
	c.Nodes = slices.Clone(cfg.Nodes)
	ns := &Nodes{Config: &c, Dialer: transport.TCPDialer{}, opts: opts, icd: device.NewICD(), srvs: make([]*transport.Server, len(c.Nodes))}
	sim.RegisterDrivers(ns.icd, reg)
	if !opts.TCP {
		ns.net = transport.NewMemNetwork()
		ns.Dialer = ns.net
	}
	ns.mu.Lock()
	var err error
	for i := 0; i < len(c.Nodes) && err == nil; i++ {
		err = ns.bootLocked(i)
	}
	ns.mu.Unlock()
	if err == nil {
		err = c.Validate()
	}
	if err != nil {
		ns.Close()
		return nil, err
	}
	return ns, nil
}

// bootLocked starts a fresh process (a new BootID) for node i and binds it,
// replacing a closed server still bound there. Caller holds ns.mu.
func (ns *Nodes) bootLocked(i int) error {
	spec := &ns.Config.Nodes[i]
	devs, err := spec.DeviceConfigs()
	if err != nil {
		return err
	}
	n, err := node.New(node.Options{Name: spec.Name, Devices: devs, ICD: ns.icd, ExecWorkers: ns.opts.ExecWorkers, Dialer: ns.Dialer})
	if err != nil {
		return err
	}
	srv := n.Serve()
	if wrap := ns.opts.Wrap; wrap != nil {
		srv = transport.NewServer(func() transport.Handler { return wrap(i, n.NewSession()) })
	}
	if ns.net == nil {
		spec.Addr, err = srv.Listen("127.0.0.1:0")
	} else {
		ns.net.Unregister(spec.Addr)
		err = ns.net.Register(spec.Addr, srv)
	}
	if err == nil {
		ns.srvs[i] = srv
	}
	return err
}

func (ns *Nodes) index(name string) (int, error) {
	if i := slices.IndexFunc(ns.Config.Nodes, func(n cluster.NodeSpec) bool { return n.Name == name }); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("inproc: no node %q", name)
}

// Kill crashes the named node and unbinds its address: every connection to
// it drops, and a dial fails until a Boot. Under TCP the closed listener
// frees the port.
func (ns *Nodes) Kill(name string) error { return ns.stop(name, true) }

// Crash closes the named node's server and leaves it bound, so a dial
// reaches the closed server and is refused as a dial. Refused under TCP.
func (ns *Nodes) Crash(name string) error { return ns.stop(name, false) }

func (ns *Nodes) stop(name string, unbind bool) error {
	i, err := ns.index(name)
	if err != nil {
		return err
	}
	if ns.net == nil && !unbind {
		return fmt.Errorf("inproc: crash %q: a node served over TCP can only be killed", name)
	}
	ns.mu.Lock()
	srv := ns.srvs[i]
	ns.srvs[i] = nil
	if unbind && ns.net != nil {
		ns.net.Unregister(ns.Config.Nodes[i].Addr)
	}
	ns.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Boot starts a fresh process for the named node, which must be down, at
// its address. Refused under TCP, where the port may be someone else's.
func (ns *Nodes) Boot(name string) error {
	i, err := ns.index(name)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	switch {
	case ns.net == nil:
		return fmt.Errorf("inproc: boot %q: a node served over TCP cannot reboot", name)
	case ns.srvs[i] != nil:
		return fmt.Errorf("inproc: boot %q: the node is up", name)
	}
	return ns.bootLocked(i)
}

// IsUp reports whether the named node is served.
func (ns *Nodes) IsUp(name string) bool { return slices.Contains(ns.Up(), name) }

// Up lists the served nodes in Config order.
func (ns *Nodes) Up() []string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	var up []string
	for i, srv := range ns.srvs {
		if srv != nil {
			up = append(up, ns.Config.Nodes[i].Name)
		}
	}
	return up
}

// Close stops every node that is up; it may be called again.
func (ns *Nodes) Close() error {
	for _, n := range ns.Config.Nodes {
		ns.Kill(n.Name)
	}
	return nil
}
