package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a multiplexing connection to one node: many concurrent calls
// share a single TCP connection, paired with their responses by request ID.
// A broken connection fails every pending call with the transport error and
// redials lazily on the next call — combined with retry.Do at the call
// sites, a node restart costs idempotent callers one backoff, not an error.
// Client is safe for concurrent use.
type Client struct {
	addr string

	mu      sync.Mutex // guards conn, pending, nextID, dialing
	conn    net.Conn
	pending map[uint64]chan []byte
	nextID  uint64

	writeMu sync.Mutex // serializes frame writes on conn (not their encoding)
}

// NewClient returns a client for the node at addr. No connection is opened
// until the first call.
func NewClient(addr string) *Client {
	return &Client{addr: addr, pending: make(map[uint64]chan []byte)}
}

// Addr returns the node address this client dials.
func (c *Client) Addr() string { return c.addr }

// Close tears down the connection, failing pending calls.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// dialTimeout bounds one connection attempt — short, because the caller's
// retry loop (not a hung dial) is the mechanism for riding out a restart.
const dialTimeout = 2 * time.Second

// ensureConn returns the live connection, dialing if needed.
func (c *Client) ensureConn(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	if c.conn != nil {
		conn := c.conn
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	// Dial outside the lock so a slow dial doesn't block response dispatch
	// for calls on a racing dial's connection.
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.conn != nil { // another caller won the dial race
		existing := c.conn
		c.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	c.conn = conn
	c.mu.Unlock()
	go c.readLoop(conn)
	return conn, nil
}

// readLoop dispatches response frames to pending calls until the
// connection breaks, then fails everything still pending so no caller
// hangs on a dead node — the cluster-level guarantee that a down node
// yields a typed error, never a stuck query.
func (c *Client) readLoop(conn net.Conn) {
	for {
		reqID, _, payload, err := readFrame(conn)
		if err != nil {
			c.fail(conn, err)
			return
		}
		c.mu.Lock()
		ch := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ch != nil {
			ch <- payload
		}
	}
}

// fail closes conn (if still current) and wakes every pending call with a
// closed channel, which they surface as a transport error.
func (c *Client) fail(conn net.Conn, err error) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	pending := c.pending
	c.pending = make(map[uint64]chan []byte)
	c.mu.Unlock()
	conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// Call performs one RPC: writes a frame of the given kind and decodes the
// response into resp (whose wire struct carries its own Err field — Call
// only surfaces transport-level failures; application errors arrive inside
// resp). It honors ctx while waiting, but does not cancel server-side work:
// deadline propagation (the DeadlineUS request fields) is the cross-process
// cancellation mechanism.
func (c *Client) Call(ctx context.Context, kind byte, req, resp interface{}) error {
	conn, err := c.ensureConn(ctx)
	if err != nil {
		return fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	ch := make(chan []byte, 1)
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	if err = writeFrame(conn, &c.writeMu, id, kind, req); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		c.fail(conn, err)
		return fmt.Errorf("cluster: write to %s: %w", c.addr, err)
	}

	select {
	case payload, ok := <-ch:
		if !ok {
			return fmt.Errorf("cluster: connection to %s lost: %w", c.addr, net.ErrClosed)
		}
		return decodePayload(payload, resp)
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return ctx.Err()
	}
}

// deadlineUS converts ctx's remaining budget to the wire's microsecond
// form: 0 when no deadline, floored at 1µs when one exists but has (all
// but) expired, so the receiver still sees an immediately-canceled context
// rather than an unbounded one.
func deadlineUS(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	us := time.Until(dl).Microseconds()
	if us < 1 {
		us = 1
	}
	return us
}
