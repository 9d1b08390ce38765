// Package a exercises lockorder against a four-class hierarchy: three
// object locks under a session-wide reader/writer gate.
package a

import "sync"

// lock-order: Session.recGate < Buffer.mu < Context.mu < Context.regMu

type Session struct{ recGate sync.RWMutex }

type Buffer struct{ mu sync.Mutex }

type Context struct {
	mu    sync.Mutex
	regMu sync.Mutex
}

func good(b *Buffer, c *Context) {
	b.mu.Lock()
	c.mu.Lock()
	c.regMu.Lock()
	c.regMu.Unlock()
	c.mu.Unlock()
	b.mu.Unlock()
}

func bad(b *Buffer, c *Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b.mu.Lock() // want `acquires Buffer.mu while holding Context.mu`
	b.mu.Unlock()
}

func double(a, b *Buffer) {
	a.mu.Lock()
	b.mu.Lock() // want `already holding`
	b.mu.Unlock()
	a.mu.Unlock()
}

// lockReg takes the registration lock and releases it.
func lockReg(c *Context) {
	c.regMu.Lock()
	c.regMu.Unlock()
}

// lockCtx takes the context lock and releases it.
func lockCtx(c *Context) {
	c.mu.Lock()
	c.mu.Unlock()
}

func viaCall(c *Context) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	lockCtx(c) // want `may acquire Context.mu`
}

func viaCallOK(c *Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lockReg(c)
}

// heldEntry mutates the registry. Caller holds Context.regMu.
func heldEntry(c *Context) {
	c.mu.Lock() // want `while holding Context.regMu`
	c.mu.Unlock()
}

func branchScoped(c *Context, cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	b := &Buffer{}
	b.mu.Lock()
	b.mu.Unlock()
}

func sequentialOK(b *Buffer, c *Context) {
	c.mu.Lock()
	c.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// gatedOK is a command under the read side of its session's gate.
func gatedOK(s *Session, b *Buffer, c *Context) {
	s.recGate.RLock()
	defer s.recGate.RUnlock()
	b.mu.Lock()
	lockCtx(c)
	b.mu.Unlock()
}

// recoverOK holds the write side of every gate it needs, one per loop
// iteration, before it touches the objects behind them.
func recoverOK(sessions []*Session, b *Buffer) {
	for _, s := range sessions {
		s.recGate.Lock()
		defer s.recGate.Unlock()
	}
	b.mu.Lock()
	b.mu.Unlock()
}

func gateInside(s *Session, b *Buffer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s.recGate.RLock() // want `acquires Session.recGate while holding Buffer.mu`
	s.recGate.RUnlock()
}

// lockGate takes the write side of the gate and releases it.
func lockGate(s *Session) {
	s.recGate.Lock()
	s.recGate.Unlock()
}

func gateViaCall(s *Session, c *Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lockGate(s) // want `may acquire Session.recGate`
}

func gateNested(s *Session) {
	s.recGate.RLock()
	s.recGate.RLock() // want `already holding`
	s.recGate.RUnlock()
	s.recGate.RUnlock()
}
