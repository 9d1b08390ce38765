package transport

import (
	"fmt"
	"sync"
)

// MemNetwork is an in-process network: servers register under string
// addresses and clients dial them, with traffic flowing over synchronous,
// unbuffered in-memory connections (memConn) through the exact same framing
// code as TCP. The experiment harness builds its simulated clusters on a
// MemNetwork so a 20-node run does not need 20 OS processes.
type MemNetwork struct {
	mu      sync.Mutex
	servers map[string]*Server
}

// NewMemNetwork returns an empty in-process network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{servers: make(map[string]*Server)}
}

// Register binds srv to addr on the network.
func (n *MemNetwork) Register(addr string, srv *Server) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.servers[addr]; ok {
		return fmt.Errorf("mem network: address %q already bound", addr)
	}
	n.servers[addr] = srv
	return nil
}

// Unregister removes the binding for addr, if any.
func (n *MemNetwork) Unregister(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.servers, addr)
}

// Dial connects a new client to the server bound at addr. A server that is
// bound but closed refuses the connection, as a closed listener would.
func (n *MemNetwork) Dial(addr string) (*Client, error) {
	n.mu.Lock()
	srv := n.servers[addr]
	n.mu.Unlock()
	if srv == nil {
		return nil, fmt.Errorf("mem network: no server at %q", addr)
	}
	hostEnd, nodeEnd := newMemConnPair()
	if err := srv.ServeConn(nodeEnd); err != nil {
		return nil, fmt.Errorf("mem network: dial %q: %w", addr, err)
	}
	return NewClient(hostEnd), nil
}

// Dialer abstracts how the host runtime reaches a node, so the same runtime
// code serves TCP clusters and in-process test clusters.
type Dialer interface {
	Dial(addr string) (*Client, error)
}

// TCPDialer dials nodes over real TCP.
type TCPDialer struct{}

// Dial implements Dialer.
func (TCPDialer) Dial(addr string) (*Client, error) { return Dial(addr) }

var _ Dialer = (*MemNetwork)(nil)
var _ Dialer = TCPDialer{}
