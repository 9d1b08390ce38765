package node

import (
	"errors"
	"sync"
	"sync/atomic"

	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/transport"
	"github.com/haocl-project/haocl/internal/vtime"
)

// pushChunkBytes is the store-and-forward unit for broadcast cut-through:
// a forwarding hop starts relaying once the first chunk is in, so each
// extra hop adds only one chunk's link time, not the full buffer (mirrors
// core's broadcastChunkBytes).
const pushChunkBytes = 8 << 20

// rendezvous pairs inbound PeerPush deposits with the host-issued AwaitPush
// commands that consume them. It is node-global, not per-session: the
// deposit arrives on the source node's inbound connection while the
// AwaitPush rides the host's session, and the two must meet on the token.
// Whichever side arrives first creates the entry; the consumer deletes it.
// A membership change fails every entry but leaves it in place for one more
// epoch (reset), so an await that only executes afterwards still finds the
// verdict instead of a fresh entry nobody will ever complete.
type rendezvous struct {
	mu      sync.Mutex
	entries map[uint64]*rdvEntry // guarded by mu
}

// rdvEntry is one pending push. done is closed exactly once — by the
// deposit or by a cancel — after which data/simArrival/err are immutable.
// data is a view of the PeerPush frame's body, kept until the awaiter has
// copied it into the replica: the one request body that outlives its
// response (DESIGN.md §11). A bulk body is pooled, and the transport hands
// it over once the deposit's ack is written (depositAck.KeepBody).
type rdvEntry struct {
	done       chan struct{}
	data       []byte
	simArrival int64
	err        error
	// stale marks an entry the last reset failed; the next one deletes it.
	stale bool // guarded by rendezvous.mu
	// taken marks an entry an awaiter has consumed or abandoned: no other
	// awaiter may read its data.
	taken bool // guarded by rendezvous.mu
	// body is the pooled buffer data lives in, set by the hand-over before
	// it counts itself in released; nil when the body is not pooled.
	body *protocol.Buf
	// released counts the parties done with data: the hand-over of body,
	// and the awaiter once it has copied data (or refused it). The second
	// frees body. An entry only one of them reaches — replaced by a reset
	// before an awaiter took it, or never awaited — leaves body to the
	// collector.
	released atomic.Int32
}

// release counts one party done with e.data, freeing the body on the
// second.
func (e *rdvEntry) release() {
	if e.released.Add(1) == 2 {
		e.body.Free()
	}
}

// depositAck answers a PeerPush: an empty response on the wire, and the
// hand-over of the deposit's body to the entry that parks it.
type depositAck struct {
	protocol.EmptyResp
	e *rdvEntry
}

// KeepBody implements protocol.BodyKeeper.
func (a *depositAck) KeepBody(b *protocol.Buf) {
	a.e.body = b
	a.e.release()
}

func newRendezvous() *rendezvous {
	return &rendezvous{entries: make(map[uint64]*rdvEntry)}
}

// entry returns the rendezvous entry for token, creating it if this is the
// first side to arrive.
func (r *rendezvous) entry(token uint64) *rdvEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[token]
	if e == nil {
		e = &rdvEntry{done: make(chan struct{})}
		r.entries[token] = e
	}
	return e
}

// deposit parks pushed data under token, waking the awaiter, and returns
// the entry that holds it.
func (r *rendezvous) deposit(token uint64, data []byte, simArrival int64) (*rdvEntry, error) {
	e := r.entry(token)
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-e.done:
		return nil, remoteErr(protocol.CodeBadRequest, "duplicate push for token %d", token)
	default:
	}
	e.data = data
	e.simArrival = simArrival
	close(e.done)
	return e, nil
}

// cancel fails a pending rendezvous so its awaiter errors out instead of
// parking forever. Cancelling an already-completed entry is a no-op: the
// cancel raced a deposit that made it through, and the data wins.
func (r *rendezvous) cancel(token uint64, err error) {
	e := r.entry(token)
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-e.done:
		return
	default:
	}
	e.err = err
	close(e.done)
}

// take claims completed entry e for the awaiter of token and drops it from
// the table, reporting false when another awaiter claimed it first.
func (r *rendezvous) take(token uint64, e *rdvEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.taken {
		return false
	}
	e.taken = true
	if r.entries[token] == e {
		delete(r.entries, token)
	}
	return true
}

// abandon is an awaiter leaving e because its session closed. A pending
// entry is failed in place, a tombstone like a cancel's, so a later deposit
// is refused instead of parking a body nobody will consume; a deposit that
// made it is taken and its body let go.
func (r *rendezvous) abandon(token uint64, e *rdvEntry, err error) {
	r.cancel(token, err)
	if e.err == nil && r.take(token, e) {
		e.release()
	}
}

// reset fails every rendezvous with err. Called on a membership change: the
// counterpart of any pending push may be gone, and the host re-plans with
// fresh tokens, so nothing parked here will be completed or, if deposited,
// consumed as planned. The entries stay, as tombstones, until the next
// reset: the awaiter of a token may execute only after its cancel — or its
// deposit — and this reset, and must find the failure rather than create an
// entry of its own and park on it for ever. An awaiter that got there
// removes the entry as after any failure; the rest are dropped one
// membership change later, which bounds the table by an epoch's tokens.
// A parked entry is failed in place, under r.mu like deposit and cancel, so
// a racing deposit sees done already closed. A cancelled one has failed
// already. A deposited one may be in its awaiter's hands — immutable once
// done is closed — so it is replaced, and loses its data to the collector
// unless that awaiter takes it.
func (r *rendezvous) reset(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for t, e := range r.entries {
		if e.stale {
			delete(r.entries, t)
			continue
		}
		select {
		case <-e.done:
			if e.err == nil {
				e = &rdvEntry{done: e.done, err: err}
				r.entries[t] = e
			}
		default:
			e.err = err
			close(e.done)
		}
		e.stale = true
	}
}

// peerConn is one pooled connection to a sibling node. A dial or handshake
// failure is sticky: every later push toward that peer fails fast with the
// same error instead of re-dialing a dead address mid-chain. ready is
// closed once the dial attempt resolved; after that, client/err mutate
// only under peerMu (markPeerDown).
type peerConn struct {
	ready  chan struct{}
	client *transport.Client
	err    error
}

// peerClient returns the pooled connection to the named peer, dialing
// lazily on first use with the address book learned at Hello time. The
// pool lives on the session, so a host disconnect tears down exactly the
// peer links its own commands opened.
//
// The dial itself runs outside peerMu — it blocks on the network — and the
// dialer re-checks pool ownership before publishing: if Close or an epoch
// reset swapped the pool out underneath the dial, the freshly dialed
// connection is closed instead of leaking outside the teardown path.
func (s *Session) peerClient(name string) (*transport.Client, error) {
	s.peerMu.Lock()
	if s.peersClosed {
		s.peerMu.Unlock()
		return nil, remoteErr(protocol.CodeNodeLost, "node %q: session closed while dialing peer %q", s.node.name, name)
	}
	if s.peerConns == nil {
		s.peerConns = make(map[string]*peerConn)
	}
	if pc, ok := s.peerConns[name]; ok {
		s.peerMu.Unlock()
		<-pc.ready
		// Re-lock for the read: markPeerDown mutates resolved entries
		// under peerMu.
		s.peerMu.Lock()
		defer s.peerMu.Unlock()
		return pc.client, pc.err
	}
	pc := &peerConn{ready: make(chan struct{})}
	s.peerConns[name] = pc
	s.peerMu.Unlock()

	client, err := s.dialPeer(name)

	s.peerMu.Lock()
	if s.peersClosed || s.peerConns[name] != pc {
		s.peerMu.Unlock()
		if client != nil {
			client.Close()
		}
		pc.err = remoteErr(protocol.CodeNodeLost, "node %q: peer pool reset while dialing %q", s.node.name, name)
		close(pc.ready)
		return nil, pc.err
	}
	pc.client, pc.err = client, err
	s.peerMu.Unlock()
	close(pc.ready)
	return client, err
}

// dialPeer opens and handshakes one peer connection.
func (s *Session) dialPeer(name string) (*transport.Client, error) {
	s.mu.Lock()
	addr, ok := s.peers[name]
	book := s.peers != nil
	s.mu.Unlock()
	switch {
	case !book:
		return nil, remoteErr(protocol.CodeUnknownObject,
			"node %q has no address for peer %q (host did not send a peer list)", s.node.name, name)
	case !ok:
		// The host's latest address book leaves the peer out: it left the
		// membership after this push was planned.
		return nil, remoteErr(protocol.CodeNodeLost, "node %q: peer %q left the membership", s.node.name, name)
	}
	if s.node.dialer == nil {
		return nil, remoteErr(protocol.CodeUnsupported,
			"node %q cannot dial peers: no dialer configured", s.node.name)
	}
	client, err := s.node.dialer.Dial(addr)
	if err != nil {
		return nil, remoteErr(protocol.CodeNodeLost, "dial peer %q at %q: %v", name, addr, err)
	}
	if _, err := transport.Handshake(client, protocol.HelloReq{
		UserID:     s.user(),
		ClientName: "peer:" + s.node.name,
	}); err != nil {
		client.Close()
		return nil, remoteErr(protocol.CodeNodeLost, "handshake with peer %q: %v", name, err)
	}
	return client, nil
}

// markPeerDown makes a mid-session send failure sticky and closes the
// broken connection, so dependent pushes fail fast instead of queuing onto
// a dead socket.
func (s *Session) markPeerDown(name string, err error) {
	s.peerMu.Lock()
	pc := s.peerConns[name]
	if pc == nil {
		s.peerMu.Unlock()
		return
	}
	s.peerMu.Unlock()
	<-pc.ready // client/err immutable after ready

	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if pc.err != nil {
		return
	}
	pc.err = err
	if pc.client != nil {
		pc.client.Close()
		pc.client = nil
	}
}

// closePeers tears the session's peer pool down on Close. Entries still
// mid-dial are skipped: their dialer re-checks pool ownership after the
// dial resolves and closes its own connection (see peerClient).
func (s *Session) closePeers() {
	s.peerMu.Lock()
	s.peersClosed = true
	conns := s.peerConns
	s.peerConns = nil
	s.peerMu.Unlock()
	closeResolvedPeers(conns)
}

// resetPeers drops every pooled peer connection — including sticky dial
// failures — on a membership change: a restarted peer is reachable again,
// and surviving conns to a dead peer's old incarnation are useless.
func (s *Session) resetPeers() {
	s.peerMu.Lock()
	if s.peersClosed {
		s.peerMu.Unlock()
		return
	}
	conns := s.peerConns
	s.peerConns = nil
	s.peerMu.Unlock()
	closeResolvedPeers(conns)
}

// closeResolvedPeers closes every pool entry whose dial has resolved;
// in-flight dials clean up after themselves via the ownership re-check.
func closeResolvedPeers(conns map[string]*peerConn) {
	for _, pc := range conns {
		select {
		case <-pc.ready:
			if pc.client != nil {
				pc.client.Close()
			}
		default:
		}
	}
}

// exec ships [Offset, Offset+Size) of a local replica to a peer.
// Two timing shapes share the handler: a migration push (DepartAt == 0)
// reads the range off the device, then crosses the node's egress link with
// the full payload; a broadcast forwarding hop (DepartAt > 0) relays data
// that is still arriving, so only the first chunk's link time separates
// this hop's arrival from the previous one (cut-through, matching the
// host's hopDelay arithmetic). Either way the virtual arrival
// at the peer travels with the data and the host NIC is never charged.
func (c *pushCmd) exec() (protocol.Message, error) {
	s, req, q, ev, buf := c.s, &c.req, c.q, c.ev, c.buf
	deadline, err := s.awaitDeadline(c.waits)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	client, err := s.peerClient(req.PeerName)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	modelBytes := req.Size
	if req.ModelBytes > 0 {
		modelBytes = req.ModelBytes
	}

	var start, arrival vtime.Time
	var submit vtime.Time // dependency-resolved instant, for Profile.Submit
	if req.DepartAt > 0 {
		// Forwarding hop: the payload is cut through, no device read. The
		// waits above are a functional presence edge only (the data must be
		// in the replica before we copy it out); virtually the forward
		// overlaps the predecessor's device write, so departure is the
		// host-planned instant, not the wait deadline.
		depart := vtime.Time(req.DepartAt)
		start = depart
		submit = depart
		_, arrival = s.node.nicOut.Transfer(depart, min(modelBytes, pushChunkBytes))
	} else {
		// Migration push: device read, then the full payload on the link.
		at := vtime.Max(vtime.Time(req.SimArrival), deadline)
		dur := q.dev.ModelTransfer(modelBytes)
		q.execMu.Lock()
		rstart, rend := q.clock.Reserve(at, dur)
		q.execMu.Unlock()
		q.stats.observeTransfer(modelBytes, q.dev.EnergyRate(), dur, rend)
		submit = at
		start = rstart
		_, arrival = s.node.nicOut.Transfer(rend, modelBytes)
	}

	// The push frame references the snapshot while it is in flight.
	data, pooled := snapshotBuf(req.Size)
	buf.mu.RLock()
	copy(data, buf.data[req.Offset:req.Offset+req.Size])
	buf.mu.RUnlock()

	push := &protocol.PeerPushReq{Token: req.Token, Data: data, SimArrival: int64(arrival)}
	if err := client.Call(push, nil); err != nil {
		// The snapshot is left to the collector: a failed call does not
		// prove the writer goroutine is done reading it. A peer that
		// answered — refusing a push whose rendezvous a membership change
		// failed — keeps its connection for the pushes after it.
		answered := errors.As(err, new(*protocol.RemoteError))
		err = remoteErr(protocol.CodeNodeLost, "push to peer %q: %v", req.PeerName, err)
		if !answered {
			s.markPeerDown(req.PeerName, err)
		}
		return nil, s.failCommand(ev, err)
	}
	pooled.Free() // acknowledged, so read in full by the peer

	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(submit), Start: int64(start), End: int64(arrival),
	}
	return c.completed(prof)
}

// exec receives a deposited range into a local buffer. It blocks
// on the rendezvous entry for the token — the synchronization edge between
// the source's data plane and this node's command stream — then reserves
// the device-side write no earlier than the data's virtual arrival.
func (c *awaitCmd) exec() (protocol.Message, error) {
	s, req, q, ev, buf := c.s, &c.req, c.q, c.ev, c.buf
	deadline, err := s.awaitDeadline(c.waits)
	if err != nil {
		return nil, s.failCommand(ev, err)
	}

	entry := s.node.rdv.entry(req.Token)
	select {
	case <-entry.done:
	case <-s.closedCh:
		err := remoteErr(protocol.CodeBadRequest, "session closed while awaiting push %d", req.Token)
		s.node.rdv.abandon(req.Token, entry, err)
		return nil, s.failCommand(ev, err)
	}
	if !s.node.rdv.take(req.Token, entry) {
		return nil, s.failCommand(ev, remoteErr(protocol.CodeBadRequest,
			"push %d awaited twice", req.Token))
	}
	if entry.err != nil {
		return nil, s.failCommand(ev, remoteErr(errCode(entry.err),
			"await push %d: %v", req.Token, entry.err))
	}
	if int64(len(entry.data)) != req.Size {
		entry.release()
		return nil, s.failCommand(ev, remoteErr(protocol.CodeBadRequest,
			"push %d carried %d bytes, await expects %d", req.Token, len(entry.data), req.Size))
	}

	modelBytes := req.Size
	if req.ModelBytes > 0 {
		modelBytes = req.ModelBytes
	}
	arrival := vtime.Max(vtime.Max(vtime.Time(req.SimArrival), vtime.Time(entry.simArrival)), deadline)
	dur := q.dev.ModelTransfer(modelBytes)
	q.execMu.Lock()
	start, end := q.clock.Reserve(arrival, dur)
	buf.mu.Lock()
	copy(buf.data[req.Offset:], entry.data)
	buf.mu.Unlock()
	q.execMu.Unlock()
	entry.release()

	q.stats.observeTransfer(modelBytes, q.dev.EnergyRate(), dur, end)
	prof := protocol.Profile{
		Queued: req.SimArrival, Submit: int64(arrival), Start: int64(start), End: int64(end),
	}
	return c.completed(prof)
}

// handlePeerPush is the deposit side of the rendezvous: it parks the data
// and returns immediately (the source's lane is blocked on this ack, and
// the consuming AwaitPush runs on a different session entirely, so the
// deposit must never wait on anything).
func (s *Session) handlePeerPush(body []byte) (protocol.Message, error) {
	var req protocol.PeerPushReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	e, err := s.node.rdv.deposit(req.Token, req.Data, req.SimArrival)
	if err != nil {
		return nil, err
	}
	return &depositAck{e: e}, nil
}

// handleCancelPush aborts a pending rendezvous, failing its awaiter.
func (s *Session) handleCancelPush(body []byte) (protocol.Message, error) {
	var req protocol.CancelPushReq
	if err := protocol.DecodeMessage(&req, body); err != nil {
		return nil, err
	}
	s.node.rdv.cancel(req.Token, remoteErr(protocol.CodeNodeLost, "push cancelled: %s", req.Reason))
	return &protocol.EmptyResp{}, nil
}
