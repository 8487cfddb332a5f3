package ipc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrClosed fails every call on a closed connection, including those
// still waiting for their reply when it closed.
var ErrClosed = errors.New("ipc: connection closed")

// answer maps each call kind to the kind of its reply.
var answer = map[string]string{KindRequest: KindReply, KindAppCall: KindAppReply}

// Conn is one end of an application connection. Calls this end makes
// are matched to their replies by id; calls the peer makes are served
// each on a fresh goroutine, so a slow handler stalls neither the read
// loop nor the replies to this end's own calls. An application's end
// makes requests and serves application calls; the server's end does
// the reverse.
type Conn struct {
	nc      net.Conn
	calls   string // kind of the calls this end makes
	replies string // kind of their replies
	serves  string // kind of the calls it serves
	handle  func(call *Message)
	metrics *obs.Metrics // records each message's payload size; may be nil

	writeMu sync.Mutex // serializes frames onto nc

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Message
	closed  bool
}

// NewConn wraps nc for an end that makes calls of kind calls
// (KindRequest or KindAppCall). handle serves each call of the other
// kind and must answer it with Reply. When metrics is non-nil, the
// payload size of every message read or written is recorded into its
// ipc_message_bytes. Nothing is read until Run.
func NewConn(nc net.Conn, calls string, handle func(call *Message), metrics *obs.Metrics) *Conn {
	serves := KindAppCall
	if calls == KindAppCall {
		serves = KindRequest
	}
	return &Conn{nc: nc, calls: calls, replies: answer[calls], serves: serves,
		handle: handle, metrics: metrics, pending: map[uint64]chan *Message{}}
}

// Run reads the connection until it fails or is closed, then closes
// the Conn (failing pending calls) and returns the read error.
func (c *Conn) Run() error {
	// Buffered, a frame usually costs one read of the connection instead
	// of one for its header and one for the rest.
	r := bufio.NewReader(c.nc)
	for {
		m, n, err := readMessage(r)
		if err != nil {
			c.Close()
			return err
		}
		c.metrics.ObserveN(obs.HIPCMessage, uint64(n))
		switch m.Kind {
		case c.replies:
			c.mu.Lock()
			ch := c.pending[m.ID]
			delete(c.pending, m.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		case c.serves:
			go c.handle(m)
		}
	}
}

// Close closes the connection; pending and later calls fail with
// ErrClosed. Closing twice is a no-op.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pend := c.pending
	c.pending = nil
	c.mu.Unlock()
	err := c.nc.Close()
	for _, ch := range pend {
		close(ch)
	}
	return err
}

// Closed reports whether the connection has closed.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Call sends one call and waits for its reply, decoding the reply's
// body into rep when rep is non-nil. A reply carrying an error returns
// it; timeout > 0 bounds the wait.
func (c *Conn) Call(op string, body, rep any, timeout time.Duration) error {
	_, err := c.call(&Message{Op: op}, body, rep, timeout)
	return err
}

// Begin is Call for a request in a transaction the peer has not begun
// yet: the request carries the begin flag, and Begin returns the id of
// the transaction the peer began for it — also when the request then
// failed. It is 0 when none was begun.
func (c *Conn) Begin(op string, body, rep any) (uint64, error) {
	return c.call(&Message{Op: op, Begin: true}, body, rep, 0)
}

func (c *Conn) call(m *Message, body, rep any, timeout time.Duration) (uint64, error) {
	if body != nil {
		var err error
		if m.Body, err = EncodeBody(body); err != nil {
			return 0, err
		}
	}
	ch := make(chan *Message, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	c.nextID++
	m.ID, m.Kind = c.nextID, c.calls
	c.pending[m.ID] = ch
	c.mu.Unlock()

	if err := c.send(m); err != nil {
		c.forget(m.ID)
		return 0, err
	}
	var expired <-chan time.Time
	if timeout > 0 {
		// A stopped timer is collectable at once; an unstopped one stays
		// live until it fires, timeout after every answered call.
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case r, ok := <-ch:
		if !ok {
			return 0, ErrClosed
		}
		if r.Err != "" {
			return r.Txn, errors.New(r.Err)
		}
		if rep != nil {
			return r.Txn, DecodeBody(r, rep)
		}
		return r.Txn, nil
	case <-expired:
		c.forget(m.ID)
		return 0, fmt.Errorf("ipc: no reply to %q within %v", m.Op, timeout)
	}
}

func (c *Conn) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Reply answers a served call with body, or with err when it is
// non-nil. The reply carries call.Txn, which a handler that began a
// transaction for a Begin call sets to that transaction's id. A reply
// that cannot be written closes the connection: the peer's caller then
// fails instead of waiting for it.
func (c *Conn) Reply(call *Message, body any, err error) {
	m := &Message{ID: call.ID, Kind: answer[call.Kind], Op: call.Op, Txn: call.Txn}
	if err == nil && body != nil {
		m.Body, err = EncodeBody(body)
	}
	if err != nil {
		m.Err = err.Error()
	}
	if c.send(m) != nil {
		c.Close()
	}
}

func (c *Conn) send(m *Message) error {
	c.writeMu.Lock()
	n, err := writeMessage(c.nc, m)
	c.writeMu.Unlock()
	if err == nil {
		c.metrics.ObserveN(obs.HIPCMessage, uint64(n))
	}
	return err
}
