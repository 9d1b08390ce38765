package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/protocol"
)

// connPair makes the two ends of a connection. net.Pipe is the reference
// the in-process conn is held to: every script below runs once over each
// and must produce the same transcript.
type connPair func() (net.Conn, net.Conn)

// obs renders one operation's outcome, with everything a caller could tell
// two errors apart by.
func obs(op string, n int, err error) string {
	if err == nil {
		return fmt.Sprintf("%s n=%d", op, n)
	}
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	return fmt.Sprintf("%s n=%d err=%T %q eof=%t closed=%t deadline=%t timeout=%t", op, n, err, err,
		err == io.EOF, err == io.ErrClosedPipe, errors.Is(err, os.ErrDeadlineExceeded), timeout)
}

// differential runs script over net.Pipe and over the in-process conn and
// requires the two transcripts to be equal.
func differential(t *testing.T, script func(t *testing.T, pair connPair) []string) {
	t.Helper()
	want := script(t, net.Pipe)
	got := script(t, newMemConnPair)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("transcripts differ\n net.Pipe: %q\n  memConn: %q", want, got)
	}
	if len(want) == 0 {
		t.Fatal("script observed nothing")
	}
}

// TestMemConnStreamsMatchPipe: seeded streams of writes of 1 to 5000 bytes
// read back through buffers of 0 to 700 — one write split over many reads,
// writes larger than every read, zero-length reads in mid-stream — must
// give the same bytes, the same count from every Read and Write, and the
// same end of stream.
func TestMemConnStreamsMatchPipe(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		differential(t, func(t *testing.T, pair connPair) []string {
			rng := rand.New(rand.NewSource(seed))
			a, b := pair()
			writes := make([][]byte, 1+rng.Intn(12))
			total := 0
			for i := range writes {
				writes[i] = make([]byte, 1+rng.Intn(5000))
				rng.Read(writes[i])
				total += len(writes[i])
			}
			wrote := make(chan []string)
			go func() {
				var log []string
				for _, w := range writes {
					n, err := a.Write(w)
					log = append(log, obs("write", n, err))
				}
				a.Close()
				wrote <- log
			}()
			var log []string
			var got []byte
			for len(got) < total {
				buf := make([]byte, rng.Intn(700))
				if rng.Intn(8) == 0 {
					buf = nil // waits for a write like any other read, takes nothing
				}
				n, err := b.Read(buf)
				log = append(log, obs("read", n, err))
				if err != nil {
					t.Fatalf("seed %d: read after %d of %d bytes: %v", seed, len(got), total, err)
				}
				got = append(got, buf[:n]...)
			}
			n, err := b.Read(make([]byte, 8))
			log = append(log, obs("read at end", n, err))
			log = append(log, <-wrote...)
			var sent []byte
			for _, w := range writes {
				sent = append(sent, w...)
			}
			if string(got) != string(sent) {
				t.Fatalf("seed %d: stream corrupted", seed)
			}
			return log
		})
	}
}

// TestMemConnConcurrentWritersMatchPipe: two goroutines write tagged
// messages to one end. Each Write arrives whole, never interleaved with
// the other writer's, and each writer's messages arrive in its own order.
func TestMemConnConcurrentWritersMatchPipe(t *testing.T) {
	differential(t, func(t *testing.T, pair connPair) []string {
		const msgs, size = 50, 300
		a, b := pair()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				msg := make([]byte, size)
				for i := 0; i < msgs; i++ {
					for j := range msg {
						msg[j] = byte(w<<7 | i)
					}
					if n, err := a.Write(msg); n != size || err != nil {
						t.Errorf("writer %d message %d: n=%d err=%v", w, i, n, err)
					}
				}
			}()
		}
		// Read in pieces that do not divide a message, so that an
		// interleaving inside a Write could not hide behind a boundary.
		var next [2]int
		msg := make([]byte, size)
		for k := 0; k < 2*msgs; k++ {
			for off := 0; off < size; {
				n, err := b.Read(msg[off:min(off+77, size)])
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				off += n
			}
			w, i := int(msg[0]>>7), int(msg[0]&0x7f)
			for _, c := range msg {
				if c != msg[0] {
					t.Fatalf("message %d of writer %d interleaved with another write", i, w)
				}
			}
			if i != next[w] {
				t.Fatalf("writer %d: message %d arrived where %d was due", w, i, next[w])
			}
			next[w]++
		}
		wg.Wait()
		return []string{fmt.Sprint(next)}
	})
}

// TestMemConnOneWriteFeedsWaitingReaders: two goroutines each make one Read
// of 4 bytes and one Write brings 8. Whichever reader is woken first takes
// its half and does not come back; the other must be woken for the rest.
func TestMemConnOneWriteFeedsWaitingReaders(t *testing.T) {
	differential(t, func(t *testing.T, pair connPair) []string {
		a, b := pair()
		defer a.Close()
		defer b.Close()
		reads := make(chan string, 2)
		for r := 0; r < 2; r++ {
			go func() {
				n, err := b.Read(make([]byte, 4))
				reads <- obs("read", n, err)
			}()
		}
		time.Sleep(2 * time.Millisecond) // usually both are waiting by now
		n, err := a.Write([]byte("01234567"))
		return []string{obs("write", n, err), <-reads, <-reads}
	})
}

// TestMemConnCloseMatchesPipe closes either end while the other side, or
// the same side, is blocked in Read or in Write, and uses both ends
// afterwards.
func TestMemConnCloseMatchesPipe(t *testing.T) {
	blocked := func(op func() (int, error)) chan string {
		done := make(chan string, 1)
		go func() {
			n, err := op()
			done <- obs("blocked", n, err)
		}()
		// Usually long enough for op to block; its outcome is the same if
		// the close wins the race.
		time.Sleep(2 * time.Millisecond)
		return done
	}
	after := func(a, b net.Conn) []string {
		var log []string
		for i, c := range []net.Conn{a, b} {
			n, err := c.Read(make([]byte, 4))
			log = append(log, obs(fmt.Sprint("read end ", i), n, err))
			n, err = c.Write([]byte("late"))
			log = append(log, obs(fmt.Sprint("write end ", i), n, err))
			n, err = c.Write(nil)
			log = append(log, obs(fmt.Sprint("empty write end ", i), n, err))
			log = append(log, obs(fmt.Sprint("deadline end ", i), 0, c.SetDeadline(time.Now().Add(time.Hour))))
			log = append(log, obs(fmt.Sprint("close end ", i), 0, c.Close()))
		}
		return log
	}
	for _, tc := range []struct {
		name  string
		block func(a, b net.Conn) (int, error) // runs on its own goroutine
		close func(t *testing.T, a, b net.Conn)
	}{
		{"read, peer closes", func(a, b net.Conn) (int, error) { return a.Read(make([]byte, 4)) }, func(_ *testing.T, a, b net.Conn) { b.Close() }},
		{"read, own end closes", func(a, b net.Conn) (int, error) { return a.Read(make([]byte, 4)) }, func(_ *testing.T, a, b net.Conn) { a.Close() }},
		{"write, peer closes", func(a, b net.Conn) (int, error) { return a.Write([]byte("data")) }, func(_ *testing.T, a, b net.Conn) { b.Close() }},
		{"write, own end closes", func(a, b net.Conn) (int, error) { return a.Write([]byte("data")) }, func(_ *testing.T, a, b net.Conn) { a.Close() }},
		{"half-read write, peer closes", func(a, b net.Conn) (int, error) { return a.Write([]byte("0123456789")) }, func(t *testing.T, a, b net.Conn) {
			if _, err := io.ReadFull(b, make([]byte, 4)); err != nil {
				t.Error(err)
			}
			b.Close()
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			differential(t, func(t *testing.T, pair connPair) []string {
				a, b := pair()
				done := blocked(func() (int, error) { return tc.block(a, b) })
				tc.close(t, a, b)
				return append([]string{<-done}, after(a, b)...)
			})
		})
	}
}

// TestMemConnDeadlinesMatchPipe: a deadline in the past, one that expires
// under a blocked Read and under a half-read Write, a cleared one and a
// re-armed one.
func TestMemConnDeadlinesMatchPipe(t *testing.T) {
	differential(t, func(t *testing.T, pair connPair) []string {
		a, b := pair()
		defer a.Close()
		defer b.Close()
		var log []string
		step := func(op string, n int, err error) { log = append(log, obs(op, n, err)) }
		soon := func() time.Time { return time.Now().Add(15 * time.Millisecond) }

		// Already expired: nothing blocks, in either direction, and the
		// empty read that would otherwise wait for a writer fails too.
		step("set past", 0, a.SetDeadline(time.Now().Add(-time.Second)))
		n, err := a.Read(make([]byte, 4))
		step("read past", n, err)
		n, err = a.Read(nil)
		step("empty read past", n, err)
		n, err = a.Write([]byte("x"))
		step("write past", n, err)

		// Expiring under a blocked Read, then again: expiry is sticky.
		step("set soon", 0, a.SetReadDeadline(soon()))
		n, err = a.Read(make([]byte, 4))
		step("read soon", n, err)
		n, err = a.Read(make([]byte, 4))
		step("read again", n, err)

		// Cleared, the same end reads; re-armed far ahead, it still does.
		step("clear", 0, a.SetDeadline(time.Time{}))
		for _, arm := range []time.Time{{}, time.Now().Add(time.Hour)} {
			step("re-arm", 0, a.SetReadDeadline(arm))
			go b.Write([]byte("ping"))
			n, err = io.ReadFull(a, make([]byte, 4))
			step("read re-armed", n, err)
		}

		// Re-arming replaces: the short deadline that was set first must
		// not fire into the long one's Read.
		step("short", 0, a.SetReadDeadline(soon()))
		step("long", 0, a.SetReadDeadline(time.Now().Add(time.Hour)))
		go func() {
			time.Sleep(40 * time.Millisecond)
			b.Write([]byte("late"))
		}()
		n, err = io.ReadFull(a, make([]byte, 4))
		step("read past the replaced deadline", n, err)

		// A deadline armed under a blocked Write, after the peer took 4 of
		// its 10 bytes: the Write reports 4 and the other 6 are withdrawn,
		// not delivered later.
		wrote := make(chan string)
		go func() {
			n, err := a.Write([]byte("0123456789"))
			wrote <- obs("write half read", n, err)
		}()
		n, err = io.ReadFull(b, make([]byte, 4))
		step("read 4 of 10", n, err)
		step("set write soon", 0, a.SetWriteDeadline(soon()))
		log = append(log, <-wrote)
		step("clear write", 0, a.SetWriteDeadline(time.Time{}))
		go a.Write([]byte("next"))
		buf := make([]byte, 16)
		n, err = b.Read(buf)
		step("read after withdrawn write "+string(buf[:n]), n, err)
		return log
	})
}

// TestMemConnEmptyWrite is the one place the conn departs from net.Pipe on
// purpose: an empty Write returns at once instead of waiting for a reader.
func TestMemConnEmptyWrite(t *testing.T) {
	a, b := newMemConnPair()
	defer b.Close()
	if n, err := a.Write(nil); n != 0 || err != nil {
		t.Fatalf("empty write with no reader: n=%d err=%v, want 0, nil", n, err)
	}
	a.Close()
	if _, err := a.Write(nil); err != io.ErrClosedPipe {
		t.Fatalf("empty write on a closed end: %v, want io.ErrClosedPipe", err)
	}
}

// TestMemConnStress runs two writers and two readers on each direction of
// one connection at once. Readers use buffers smaller than the writes, so
// every Write is shared out between them; every byte written must be read
// exactly once (count and sum), every Write must report its full length,
// and nobody may be left waiting — a lost wake-up hangs the test.
func TestMemConnStress(t *testing.T) {
	const writes = 400
	a, b := newMemConnPair()
	var wrote, read [2]struct{ n, sum uint64 }
	var mu sync.Mutex
	var writers, readers sync.WaitGroup
	for dir, ends := range [2][2]net.Conn{{a, b}, {b, a}} {
		dir, from, to := dir, ends[0], ends[1]
		for w := 0; w < 2; w++ {
			rng := rand.New(rand.NewSource(int64(10*dir + w)))
			writers.Add(1)
			go func() {
				defer writers.Done()
				var n, sum uint64
				for i := 0; i < writes; i++ {
					msg := make([]byte, 1+rng.Intn(2000))
					rng.Read(msg)
					for _, c := range msg {
						sum += uint64(c)
					}
					if k, err := from.Write(msg); k != len(msg) || err != nil {
						t.Errorf("direction %d: write of %d: n=%d err=%v", dir, len(msg), k, err)
						return
					}
					n += uint64(len(msg))
				}
				mu.Lock()
				wrote[dir].n += n
				wrote[dir].sum += sum
				mu.Unlock()
			}()
		}
		for r := 0; r < 2; r++ {
			rng := rand.New(rand.NewSource(int64(100 + 10*dir + r)))
			readers.Add(1)
			go func() {
				defer readers.Done()
				var n, sum uint64
				for {
					buf := make([]byte, 1+rng.Intn(600))
					k, err := to.Read(buf)
					for _, c := range buf[:k] {
						sum += uint64(c)
					}
					n += uint64(k)
					if err != nil {
						if err != io.EOF && err != io.ErrClosedPipe {
							t.Errorf("direction %d: read: %v", dir, err)
						}
						break
					}
				}
				mu.Lock()
				read[dir].n += n
				read[dir].sum += sum
				mu.Unlock()
			}()
		}
	}
	writers.Wait() // a Write returns once it has been read in full
	a.Close()
	b.Close()
	readers.Wait()
	if wrote != read {
		t.Fatalf("bytes (count, sum) written per direction %v, read %v", wrote, read)
	}
}

// TestMemConnZeroAlloc: a Write and the Reads that consume it allocate
// nothing, whichever side blocks first.
func TestMemConnZeroAlloc(t *testing.T) {
	a, b := newMemConnPair()
	defer a.Close()
	go func() {
		defer b.Close()
		hdr, body := make([]byte, 16), make([]byte, 240)
		for {
			if _, err := io.ReadFull(b, hdr); err != nil {
				return
			}
			if _, err := io.ReadFull(b, body); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.Write(msg); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a write read in two pieces allocates %.1f objects, want 0", allocs)
	}
}

// TestServerCloseWakesBlockedReplyWriter: a peer that sends a request and
// never reads the reply leaves the server's reply writer blocked in Write.
// Server.Close waits for that goroutine, so closing the connection has to
// wake it — on its own end, in the write direction.
func TestServerCloseWakesBlockedReplyWriter(t *testing.T) {
	handled := make(chan struct{})
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		close(handled)
		return &protocol.EmptyResp{}, nil
	}))
	hostEnd, nodeEnd := newMemConnPair()
	defer hostEnd.Close()
	if err := srv.ServeConn(nodeEnd); err != nil {
		t.Fatal(err)
	}
	msg := &protocol.FinishQueueReq{QueueID: 1}
	req := protocol.NewOutgoing(protocol.FrameRequest, 1, msg.Op(), msg)
	if _, err := hostEnd.Write(protocol.AppendOutgoing(nil, &req)); err != nil {
		t.Fatal(err)
	}
	<-handled // the reply is on its way into a Write nobody reads

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on a reply writer blocked in Write")
	}
}

// TestMemNetworkDialRefusedByClosedServer: a server that is still bound but
// already closed refuses a dial with an error, as a closed TCP listener
// does, instead of handing out a client whose first call dies with EOF.
func TestMemNetworkDialRefusedByClosedServer(t *testing.T) {
	net := NewMemNetwork()
	srv := NewStaticServer(HandlerFunc(func(op protocol.Op, body []byte) (protocol.Message, error) {
		return &protocol.EmptyResp{}, nil
	}))
	if err := net.Register("mem://closed", srv); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	c, err := net.Dial("mem://closed")
	if err == nil {
		c.Close()
		t.Fatal("dial of a closed server succeeded")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("dial of a closed server: %v, want ErrClosed", err)
	}
}
