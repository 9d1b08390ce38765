package core

import (
	"bytes"
	"flag"
	"math/rand"
	"sync"
	"testing"

	"github.com/haocl-project/haocl/internal/protocol"
)

var logSeeds = flag.Int("log-seeds", 2000, "seeded programs TestLogLivenessProperty runs (the nightly workflow raises it)")

// replayModel applies entries, in order, to zeroed byte-slice buffers: the
// model of what recovery does with them on a cluster. A kernel is the
// worst a real one can be for the log: every bound buffer is read and
// written in full, and the first one's new contents depend on all the
// others — buffer[0][i] += 1 + Σ others[i], others[i]++ — so forgetting
// something a kernel had read shows in a buffer the forgotten entry never
// touched.
func replayModel(entries []logEntry, bufs []*Buffer) [][]byte {
	mem := make(map[*Buffer][]byte, len(bufs))
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		out[i] = make([]byte, b.size)
		mem[b] = out[i]
	}
	for _, e := range entries {
		switch e := e.(type) {
		case *writeLog:
			copy(mem[e.b][e.off:], e.data)
		case *broadcastLog:
			copy(mem[e.b], e.data)
		case *copyLog:
			copy(mem[e.dst][e.dstOff:e.dstOff+e.size], mem[e.src][e.srcOff:e.srcOff+e.size])
		case *kernelLog:
			first := mem[e.bindings[0].buf]
			for i := range first {
				first[i]++
			}
			for _, bind := range e.bindings[1:] {
				other := mem[bind.buf]
				for i := range other {
					if i < len(first) {
						first[i] += other[i]
					}
					other[i]++
				}
			}
		}
	}
	return out
}

// checkLogConsistent verifies the log's own bookkeeping against a walk of
// its chunks: counts, payload bytes, and every header's position.
func checkLogConsistent(t *testing.T, l *cmdLog, bufs ...*Buffer) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	live, dead := 0, 0
	var payload int64
	for ci, chunk := range l.chunks {
		if ci < len(l.chunks)-1 && len(chunk) != cap(chunk) {
			t.Fatalf("chunk %d of %d is not full (%d/%d)", ci, len(l.chunks), len(chunk), cap(chunk))
		}
		for si, e := range chunk {
			if e == nil {
				dead++
				continue
			}
			live++
			payload += payloadLen(e)
			if d := e.def(); d != nil {
				if int(d.chunk) != ci || int(d.slot) != si {
					t.Fatalf("entry at %d/%d believes it is at %d/%d", ci, si, d.chunk, d.slot)
				}
				if d.lo >= d.hi && d.refs == 0 {
					t.Fatalf("entry at %d/%d is dead but still logged", ci, si)
				}
			}
		}
	}
	if live != l.live || dead != l.dead || payload != l.bytes {
		t.Fatalf("log counts live=%d dead=%d bytes=%d, chunks hold live=%d dead=%d bytes=%d",
			l.live, l.dead, l.bytes, live, dead, payload)
	}
	if l.dead > l.live {
		t.Fatalf("%d tombstones outnumber %d entries after an update", l.dead, l.live)
	}
	for _, b := range bufs {
		for _, d := range b.logDefs {
			if d.lo >= d.hi {
				t.Fatalf("buffer %p lists a definition with the empty interval [%d, %d)", b, d.lo, d.hi)
			}
		}
		checkSpareNil(t, b.logDefs)
		if cap(b.logDefs) > len(b.logDef0) && b.logDef0[0] != nil {
			t.Fatalf("buffer %p: the list moved out of its inline slot and left a pointer there", b)
		}
	}
	checkSpareNil(t, l.work)
	for _, e := range l.spare[:cap(l.spare)] {
		if e != nil {
			t.Fatal("the spare chunk still points at an entry")
		}
	}
}

// checkSpareNil: a pointer left behind in a slice's spare capacity keeps a
// dead entry, and its payload, from the collector.
func checkSpareNil(t *testing.T, s []*logDef) {
	t.Helper()
	for _, d := range s[len(s):cap(s)] {
		if d != nil {
			t.Fatalf("spare capacity still points at the definition [%d, %d)", d.lo, d.hi)
		}
	}
}

// TestLogLivenessProperty states the command log's invariant (DESIGN.md §7)
// on the log type alone, no cluster: over seeded programs of ranged and
// full writes, ranged copies, broadcasts and kernels on 3–4 small buffers,
// after every step replaying the surviving entries from zeroed buffers
// yields byte for byte what replaying every entry ever appended does.
//
// That property only says nothing needed was forgotten. That everything
// else was is the second statement: a kernel-free program that ends by
// overwriting each buffer in full is left with exactly those writes.
//
// Both have teeth. Each of these mutants of log.go, applied by hand, fails
// within the first 2 000 seeds (where it first fails in brackets):
//   - reference() takes no references (x.refs++ removed) [seed 3];
//   - a kernel does not pin (pin() returns at once) [seed 1];
//   - define() trims on any overlap, not on prefix/suffix cover (its first
//     condition replaced by lo < x.hi && hi > x.lo) [seed 1];
//   - drop() stops after one level (what a dead copy gives back is followed
//     only from the entry drop was called for) [seed 1 by the bookkeeping
//     check, seed 4 by the second statement alone].
func TestLogLivenessProperty(t *testing.T) {
	for seed := int64(1); seed <= int64(*logSeeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l cmdLog
		bufs := make([]*Buffer, 3+rng.Intn(2))
		for i := range bufs {
			bufs[i] = &Buffer{size: int64(8 + rng.Intn(17))}
		}
		randBuf := func() *Buffer { return bufs[rng.Intn(len(bufs))] }
		randBytes := func(n int64) []byte {
			data := make([]byte, n)
			rng.Read(data)
			return data
		}
		kernels := seed%4 != 0
		var all []logEntry
		steps := 10 + rng.Intn(50)
		for step := 0; step < steps+len(bufs); step++ {
			var e logEntry
			op := rng.Intn(100)
			switch {
			case step >= steps:
				// The closing overwrite of every buffer.
				b := bufs[step-steps]
				e = &writeLog{b: b, data: randBytes(b.size)}
			case op < 35:
				b := randBuf()
				off := rng.Int63n(b.size)
				e = &writeLog{b: b, off: off, data: randBytes(1 + rng.Int63n(b.size-off))}
			case op < 45:
				b := randBuf()
				e = &writeLog{b: b, data: randBytes(b.size)}
			case op < 75:
				src := randBuf()
				dst := randBuf()
				for dst == src {
					dst = randBuf()
				}
				size := 1 + rng.Int63n(min(src.size, dst.size))
				e = &copyLog{src: src, dst: dst, size: size,
					srcOff: rng.Int63n(src.size - size + 1), dstOff: rng.Int63n(dst.size - size + 1)}
			case op < 85 || !kernels:
				b := randBuf()
				e = &broadcastLog{b: b, data: randBytes(b.size)}
			default:
				perm := rng.Perm(len(bufs))[:1+rng.Intn(3)]
				k := &kernelLog{}
				for _, i := range perm {
					k.bindings = append(k.bindings, argBinding{kind: protocol.ArgBuffer, buf: bufs[i]})
				}
				e = k
			}
			l.append(e)
			all = append(all, e)

			checkLogConsistent(t, &l, bufs...)
			got, want := replayModel(l.snapshot(), bufs), replayModel(all, bufs)
			for i := range bufs {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("seed %d step %d: buffer %d replays to %x from the %d surviving entries, to %x from all %d",
						seed, step, i, got[i], l.live, want[i], len(all))
				}
			}
		}
		if !kernels && l.live != len(bufs) {
			t.Fatalf("seed %d: %d entries survive the overwrite of all %d buffers of a kernel-free program",
				seed, l.live, len(bufs))
		}
		if entries, payload := l.stats(); !kernels && payload != sumSizes(bufs) {
			t.Fatalf("seed %d: %d entries hold %d payload bytes, the buffers total %d",
				seed, entries, payload, sumSizes(bufs))
		}
	}
}

func sumSizes(bufs []*Buffer) int64 {
	var n int64
	for _, b := range bufs {
		n += b.size
	}
	return n
}

// TestLogRetireOnRelease: releasing a buffer drops what the log kept to
// rebuild it — at once when nothing else needs it, and for a definition a
// surviving copy read, when that copy goes.
func TestLogRetireOnRelease(t *testing.T) {
	var l cmdLog
	a, b, c := &Buffer{size: 8}, &Buffer{size: 8}, &Buffer{size: 8}
	l.append(&writeLog{b: a, data: make([]byte, 8)})
	l.append(&writeLog{b: b, off: 2, data: make([]byte, 4)})
	l.append(&copyLog{src: a, dst: c, size: 8})
	checkLogConsistent(t, &l, a, b, c)

	l.retire(b)
	checkLogConsistent(t, &l, a, b, c)
	if entries, payload := l.stats(); entries != 2 || payload != 8 {
		t.Fatalf("after releasing b: %d entries, %d bytes; want the write of a and the copy (2, 8)", entries, payload)
	}
	l.retire(a)
	checkLogConsistent(t, &l, a, b, c)
	if entries, _ := l.stats(); entries != 2 {
		t.Fatalf("after releasing a: %d entries; the copy into c still holds the write it read", entries)
	}
	l.retire(c)
	checkLogConsistent(t, &l, a, b, c)
	if entries, payload := l.stats(); entries != 0 || payload != 0 {
		t.Fatalf("after releasing every buffer: %d entries, %d bytes", entries, payload)
	}
	for _, buf := range []*Buffer{a, b, c} {
		if buf.logDefs != nil || buf.logDef0[0] != nil {
			t.Fatalf("a released buffer still lists %d definitions (inline: %v)", len(buf.logDefs), buf.logDef0[0])
		}
	}
}

// TestLogHoldsPooledRecords: a pooled write record stays out of its pool
// while the log, a frame or a snapshot holds it, and goes back with the
// last hold. Ending the log (Session.Close) gives back its holds, and a
// buffer released afterwards leaves the records alone — one may already
// serve another session's log.
func TestLogHoldsPooledRecords(t *testing.T) {
	var l, other cmdLog
	a, b := &Buffer{size: 4 << 10}, &Buffer{size: 4 << 10}
	data := make([]byte, 2<<10)
	w := newWriteLog(nil, a, 0, data)
	l.append(w)
	if !w.hold() { // a frame
		t.Fatal("a write of 2 KiB is not pooled")
	}
	snap := l.snapshot()
	l.append(newWriteLog(nil, a, 0, data)) // supersedes w: the log lets go
	w.Free()                               // the frame
	if w.b != a {
		t.Fatal("the record was recycled while a snapshot held it")
	}
	for _, e := range snap {
		e.(*writeLog).Free()
	}
	if w.b != nil || w.holds.Load() != 0 {
		t.Fatal("the last hold did not return the record to its pool")
	}

	last := l.snapshot()[0].(*writeLog)
	last.Free() // the snapshot's hold
	l.end()
	if last.b != nil {
		t.Fatal("ending the log did not return the record it listed")
	}
	if entries, payload := l.stats(); entries != 0 || payload != 0 {
		t.Fatalf("an ended log reports %d entries, %d bytes", entries, payload)
	}
	// The pool hands the record to another session's write of b.
	*last = writeLog{b: b, data: append(last.data[:0], data...)}
	last.holds.Store(1)
	other.append(last)
	l.retire(a) // a still lists last's header
	l.append(newWriteLog(nil, a, 0, data))
	if entries, _ := l.stats(); entries != 0 {
		t.Fatal("an ended log logged a write")
	}
	checkLogConsistent(t, &other, b)
	if entries, payload := other.stats(); entries != 1 || payload != int64(len(data)) || last.lo != 0 || last.hi != int64(len(data)) {
		t.Fatalf("releasing a buffer of the ended log changed another log's record: %d entries, %d bytes, [%d, %d)",
			entries, payload, last.lo, last.hi)
	}
}

// TestLogChunksNeverCopy: the log grows by chunks — small first, doubling
// to logChunk, fixed from there — and an append never moves an entry.
func TestLogChunksNeverCopy(t *testing.T) {
	var l cmdLog
	k := &kernelLog{}
	const n = 3 * logChunk
	for i := 0; i < n; i++ {
		l.append(k)
	}
	checkLogConsistent(t, &l)
	total := 0
	for i, chunk := range l.chunks {
		want := min(logFirstChunk<<i, logChunk)
		if cap(chunk) != want {
			t.Fatalf("chunk %d holds %d entries, want %d", i, cap(chunk), want)
		}
		total += len(chunk)
	}
	if total != n || len(l.snapshot()) != n {
		t.Fatalf("%d entries in chunks, %d in the snapshot, appended %d", total, len(l.snapshot()), n)
	}
}

// TestLogConcurrentUse: enqueues from several goroutines append to one log
// while buffers are released and — as a recovery pass does, without the
// log's lock — snapshots are walked and the entries' replay fields read.
// Meant for the race detector; the bookkeeping must add up at the end.
func TestLogConcurrentUse(t *testing.T) {
	var l cmdLog
	shared := &Buffer{size: 64}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			own := &Buffer{size: 64}
			for i := 0; i < 400; i++ {
				switch rng.Intn(6) {
				case 0:
					l.append(&writeLog{b: own, data: make([]byte, 64)})
				case 1:
					off := rng.Int63n(32)
					l.append(&writeLog{b: shared, off: off, data: make([]byte, 1+rng.Int63n(32))})
				case 2:
					l.append(&copyLog{src: shared, dst: own, srcOff: rng.Int63n(32), size: 32})
				case 3:
					l.append(&copyLog{src: own, dst: shared, dstOff: rng.Int63n(32), size: 32})
				case 4:
					l.append(&kernelLog{bindings: []argBinding{{kind: protocol.ArgBuffer, buf: own}}})
				default:
					var payload int
					for _, e := range l.snapshot() {
						switch e := e.(type) {
						case *writeLog:
							payload += len(e.data) + int(e.off)
						case *copyLog:
							payload += int(e.size + e.srcOff + e.dstOff)
						}
					}
					if entries, _ := l.stats(); entries < 0 || payload < 0 {
						t.Errorf("log reports %d entries", entries)
					}
				}
			}
			l.retire(own)
		}(int64(g))
	}
	wg.Wait()
	checkLogConsistent(t, &l, shared)
}

// BenchmarkLogAppend prices an append, liveness update included, for the
// two shapes the small-command workloads log: a buffer overwritten again
// and again (every append kills its predecessor and every other one
// compacts), and a write pinned by the launch that follows it (nothing
// ever dies).
func BenchmarkLogAppend(b *testing.B) {
	data := make([]byte, 256)
	b.Run("overwrite", func(b *testing.B) {
		var l cmdLog
		buf := &Buffer{size: 256}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.append(&writeLog{b: buf, data: data})
		}
	})
	b.Run("write+kernel", func(b *testing.B) {
		var l cmdLog
		buf := &Buffer{size: 256}
		bindings := []argBinding{{kind: protocol.ArgBuffer, buf: buf}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.append(&writeLog{b: buf, data: data})
			l.append(&kernelLog{bindings: bindings})
		}
	})
}
