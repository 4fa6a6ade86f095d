package bus

import (
	"fmt"
	"net"
	"sync"
	"time"

	"nrscope/internal/telemetry"
)

// TCPServer serves the bus over TCP as JSON lines — the paper's §6
// feedback path: NR-Scope runs as a service and pushes RAN capacity to
// application servers faster than half an RTT. telemetry.Dial is the
// matching client. Each accepted connection becomes its own DropOldest
// subscription, so a slow subscriber fills (then recycles) its own ring
// queue instead of stalling Publish or its sibling connections; a
// connection whose write fails or times out is dropped fail-fast. No
// linger: each write carries what queued during the previous one.
type TCPServer struct {
	bus *Bus
	ln  net.Listener

	mu sync.Mutex
	// writeTimeout and subOpts (extra subscription options, over the
	// no-linger default) shape every accepted connection. Read under mu,
	// so the package's tests can change them before a peer connects.
	writeTimeout time.Duration
	subOpts      []SubOption

	conns  map[net.Conn]*Subscription
	closed bool
	wg     sync.WaitGroup
}

// NewTCPServer listens on addr and streams the bus to every subscriber.
// Each connection write is bounded by a 5 s deadline: a subscriber that
// stops reading is disconnected after at most that long, so it can
// never stall drain.
func NewTCPServer(b *Bus, addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: tcp sink: %w", err)
	}
	s := &TCPServer{
		bus:          b,
		ln:           ln,
		writeTimeout: 5 * time.Second,
		conns:        make(map[net.Conn]*Subscription),
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listening address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		sink := &connSink{conn: conn, timeout: s.writeTimeout}
		opts := append([]SubOption{WithFailFast(), WithBatch(64, 0), WithOnClose(func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		})}, s.subOpts...)
		// All connections share the "tcp" instrument set: drops and
		// deliveries aggregate across subscribers.
		sub, err := s.bus.Subscribe("tcp", DropOldest, sink, opts...)
		if err != nil { // bus already closed
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = sub
		s.mu.Unlock()
	}
}

// Subscribers reports the currently connected subscriber count.
func (s *TCPServer) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting, detaches and drains every connection
// subscription, and closes the sockets.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	subs := make([]*Subscription, 0, len(s.conns))
	for _, sub := range s.conns {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sub := range subs {
		sub.Close()
	}
	s.wg.Wait()
	return err
}

// connSink writes one subscriber's batches onto its socket.
type connSink struct {
	conn    net.Conn
	timeout time.Duration
	buf     []byte
}

// WriteBatch implements Sink, one socket write per batch encoded into a
// reused buffer. Any error (including a write deadline hit) is terminal
// for the connection via the fail-fast policy.
func (c *connSink) WriteBatch(recs []telemetry.Record) error {
	buf, err := appendLines(c.buf[:0], recs, "", "\n")
	c.buf = buf
	if err != nil {
		return err
	}
	if c.timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
			return err
		}
	}
	_, err = c.conn.Write(buf)
	return err
}

// Close implements Sink.
func (c *connSink) Close() error { return c.conn.Close() }
