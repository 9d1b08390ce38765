package inproc_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/cluster/inproc"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/transport"
)

func serve(t *testing.T, cfg *cluster.Config, opts inproc.Options) *inproc.Nodes {
	t.Helper()
	ns, err := inproc.Serve(cfg, kernel.NewRegistry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns
}

// hello dials the node at addr and says Hello; the client closes when the
// test ends.
func hello(t *testing.T, ns *inproc.Nodes, addr string) (*transport.Client, protocol.HelloResp) {
	t.Helper()
	c, err := ns.Dialer.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	resp, err := transport.Handshake(c, protocol.HelloReq{UserID: "inproc-test", ClientName: "inproc-test"})
	if err != nil {
		t.Fatal(err)
	}
	return c, resp
}

// TestKillCrashBoot: after either stop a connected host sees the node go
// down. A killed node's address is unbound; a crashed one's still answers,
// and the dial is refused as a dial. Boot binds a fresh process (a new
// BootID) in its place, and only a node that is down boots.
func TestKillCrashBoot(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*inproc.Nodes, string) error
		dial string // in the dial error after the stop
	}{
		{"Kill", (*inproc.Nodes).Kill, `no server at "mem://gpu-00"`},
		{"Crash", (*inproc.Nodes).Crash, `dial "mem://gpu-00": transport: connection closed`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ns := serve(t, cluster.Synthetic("u", 0, 2, 0, nil), inproc.Options{ExecWorkers: 1})
			victim := ns.Config.Nodes[0]
			c, before := hello(t, ns, victim.Addr)
			down := make(chan error, 1)
			c.OnDown(func(err error) { down <- err })

			if err := tc.stop(ns, victim.Name); err != nil {
				t.Fatal(err)
			}
			<-down
			if _, err := ns.Dialer.Dial(victim.Addr); err == nil || !strings.Contains(err.Error(), tc.dial) {
				t.Fatalf("dial after %s: %v, want %s", tc.name, err, tc.dial)
			}
			if ns.IsUp(victim.Name) || !slices.Equal(ns.Up(), []string{ns.Config.Nodes[1].Name}) {
				t.Fatalf("after %s: IsUp %v, Up %v", tc.name, ns.IsUp(victim.Name), ns.Up())
			}
			if err := ns.Boot(victim.Name); err != nil {
				t.Fatal(err)
			}
			if _, after := hello(t, ns, victim.Addr); after.BootID == before.BootID {
				t.Fatalf("rebooted node kept BootID %d", after.BootID)
			}
			if err := ns.Boot(victim.Name); err == nil {
				t.Fatal("Boot of a node that is up succeeded")
			}
		})
	}
}

// TestTCPServesLoopback: under TCP the served config holds loopback
// addresses and the caller's is unchanged; a node can be killed, which
// closes its port, but not crashed or booted.
func TestTCPServesLoopback(t *testing.T) {
	cfg := cluster.Synthetic("u", 0, 2, 0, nil)
	want := cluster.Synthetic("u", 0, 2, 0, nil)
	ns := serve(t, cfg, inproc.Options{TCP: true, ExecWorkers: 1})
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("Serve changed the caller's config to %+v", cfg)
	}
	for _, n := range ns.Config.Nodes {
		if !strings.HasPrefix(n.Addr, "127.0.0.1:") {
			t.Fatalf("node %s served at %q, want loopback", n.Name, n.Addr)
		}
		hello(t, ns, n.Addr)
	}
	victim := ns.Config.Nodes[0]
	if err := ns.Crash(victim.Name); err == nil {
		t.Fatal("Crash accepted under TCP")
	}
	if err := ns.Kill(victim.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Dialer.Dial(victim.Addr); err == nil {
		t.Fatal("dial to a killed TCP node succeeded")
	}
	if err := ns.Boot(victim.Name); err == nil {
		t.Fatal("Boot accepted under TCP")
	}
}

// TestWrapSeesEveryConnection: Wrap stands in front of every session a
// node accepts, and is told which node.
func TestWrapSeesEveryConnection(t *testing.T) {
	seen := make(chan int, 8)
	ns := serve(t, cluster.Synthetic("u", 1, 2, 0, nil), inproc.Options{
		ExecWorkers: 1,
		Wrap: func(i int, h transport.Handler) transport.Handler {
			seen <- i
			return h
		},
	})
	for i, n := range ns.Config.Nodes {
		for range 2 {
			hello(t, ns, n.Addr)
			if got := <-seen; got != i {
				t.Fatalf("a connection to %s wrapped as node %d, want %d", n.Name, got, i)
			}
		}
	}
}

// stall holds every Hello until release closes, telling entered first.
type stall struct {
	transport.AsyncHandler
	entered chan<- struct{}
	release <-chan struct{}
}

func (s *stall) HandleCallAsync(op protocol.Op, body []byte, done func(protocol.Message, error)) {
	if op != protocol.OpHello {
		s.AsyncHandler.HandleCallAsync(op, body, done)
		return
	}
	s.entered <- struct{}{}
	go func() {
		<-s.release
		done(nil, &protocol.RemoteError{Code: protocol.CodeInternal, Message: "stalled"})
	}()
}

// TestKillWhileHandling kills a node from another goroutine while a
// request sits in its handler, as a test's tripwire does, and reads the
// node table meanwhile: Kill drops the connection, waits for the handler,
// and the race detector sees no unsynchronized state.
func TestKillWhileHandling(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	ns := serve(t, cluster.Synthetic("u", 0, 2, 0, nil), inproc.Options{
		ExecWorkers: 1,
		Wrap: func(i int, h transport.Handler) transport.Handler {
			if i != 0 {
				return h
			}
			return &stall{AsyncHandler: h.(transport.AsyncHandler), entered: entered, release: release}
		},
	})
	victim := ns.Config.Nodes[0]
	c, err := ns.Dialer.Dial(victim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	down := make(chan error, 1)
	c.OnDown(func(err error) { down <- err })
	call := c.Go(&protocol.HelloReq{UserID: "u", WireVersion: protocol.Version}, &protocol.HelloResp{})
	<-entered

	killed := make(chan error, 1)
	go func() { killed <- ns.Kill(victim.Name) }()
	<-down
	for range 100 { // while Kill waits for the handler
		if ns.IsUp(victim.Name) || len(ns.Up()) != 1 {
			t.Fatal("a node being killed is up")
		}
	}
	if err := call.Wait(); err == nil {
		t.Fatal("a call to the killed node succeeded")
	}
	close(release)
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	if ns.IsUp(victim.Name) {
		t.Fatal("a killed node is up")
	}
	if err := ns.Boot(victim.Name); err != nil {
		t.Fatal(err)
	}
}
