package fault

import (
	"fmt"
	"net"
	"time"
)

// Conn wraps a net.Conn and injects the Injector's scheduled faults on
// every Read and Write. All other methods (deadlines, addresses,
// Close) pass through, so a Conn drops into any code path expecting a
// net.Conn — including under the transport's per-connection deadline
// wrapper.
type Conn struct {
	net.Conn
	inj *Injector
}

// WrapConn wraps c with fault injection from inj.
func WrapConn(c net.Conn, inj *Injector) *Conn {
	return &Conn{Conn: c, inj: inj}
}

// Read injects the scheduled fault, then reads. Truncate has no
// read-side meaning and degrades to Reset. Under a bandwidth throttle
// the read is additionally paced by the bytes it returned — the
// gray-failure profile where data arrives, just slowly.
func (c *Conn) Read(p []byte) (int, error) {
	switch d := c.inj.Next(); d.Kind {
	case Reset, Truncate:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection reset on read", ErrInjected)
	case Latency, Stall, Spike:
		time.Sleep(d.Delay)
	}
	n, err := c.Conn.Read(p)
	if d := c.inj.throttleDelay(n); d > 0 {
		time.Sleep(d)
	}
	return n, err
}

// Write injects the scheduled fault, then writes. Truncate writes a
// strict prefix of p and severs, so the peer observes a mid-frame cut
// — the hardest benign case for a length-prefixed codec. Under a
// bandwidth throttle the write is paced by its size before it is
// issued, so the peer sees throughput capped at BytesPerSec.
func (c *Conn) Write(p []byte) (int, error) {
	switch d := c.inj.Next(); d.Kind {
	case Reset:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection reset on write", ErrInjected)
	case Truncate:
		n := 0
		if len(p) > 1 {
			n, _ = c.Conn.Write(p[:len(p)/2])
		}
		c.Conn.Close()
		return n, fmt.Errorf("%w: write truncated after %d/%d bytes", ErrInjected, n, len(p))
	case Latency, Stall, Spike:
		time.Sleep(d.Delay)
	}
	if d := c.inj.throttleDelay(len(p)); d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}

// Dialer returns a dial function producing fault-injected connections
// to addr — the shape transport.DialResilientFunc and
// broadcast.DialHubResumeFunc expect.
func Dialer(addr string, inj *Injector) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return WrapConn(c, inj), nil
	}
}
