package netcast

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"

	"tcsa/internal/core"
)

// Tuner is a single-channel UDP receiver. Like the radio tuner of the
// paper's model it hears exactly one channel at a time; Retune moves it.
// A Tuner is not safe for concurrent use.
type Tuner struct {
	conn    *net.UDPConn
	current *net.UDPAddr
	// from is current as the source address its frames arrive from, kept
	// once so ReadFrame compares without allocating.
	from      netip.AddrPort
	badFrames int
	buf       [FrameSize + 16]byte
}

// NewTuner opens the client socket (not yet tuned to any channel).
func NewTuner() (*Tuner, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("netcast: opening tuner socket: %w", err)
	}
	return &Tuner{conn: conn}, nil
}

// Tune subscribes to the channel at addr, unsubscribing from the previous
// channel first.
func (t *Tuner) Tune(addr *net.UDPAddr) error {
	if addr == nil {
		return errors.New("netcast: nil channel address")
	}
	if err := t.Detach(); err != nil {
		return err
	}
	if _, err := t.conn.WriteToUDP(subscribeMsg, addr); err != nil {
		return fmt.Errorf("netcast: subscribing to %v: %w", addr, err)
	}
	t.current = addr
	t.from = unmapped(addr.AddrPort())
	return nil
}

// unmapped strips an IPv4-in-IPv6 prefix from ap's address: a schedule
// decodes channel addresses in that form, but IPv4 datagrams report
// plain IPv4 sources.
func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Detach unsubscribes from the current channel, if any.
func (t *Tuner) Detach() error {
	if t.current == nil {
		return nil
	}
	if _, err := t.conn.WriteToUDP(unsubscribeMsg, t.current); err != nil {
		return fmt.Errorf("netcast: unsubscribing from %v: %w", t.current, err)
	}
	t.current = nil
	return nil
}

// ReadFrame blocks for the next frame on the tuned channel, up to timeout.
// Datagrams from other sources and undecodable datagrams are skipped.
func (t *Tuner) ReadFrame(timeout time.Duration) (Frame, error) {
	deadline := time.Now().Add(timeout)
	if err := t.conn.SetReadDeadline(deadline); err != nil {
		return Frame{}, err
	}
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(t.buf[:])
		if err != nil {
			return Frame{}, fmt.Errorf("netcast: reading frame: %w", err)
		}
		if t.current == nil || unmapped(from) != t.from {
			continue // stale traffic from a previous channel
		}
		f, err := parseFrame(t.buf[:n])
		if err != nil {
			// Undecodable traffic from the tuned channel: a corrupted
			// frame the checksum caught. Count it — it is a real loss.
			t.badFrames++
			continue
		}
		return f, nil
	}
}

// BadFrames reports how many undecodable datagrams from the tuned
// channel this tuner has discarded — corruption the frame checksum
// caught.
func (t *Tuner) BadFrames() int {
	return t.badFrames
}

// WaitForPage reads frames on the already-tuned channel until the wanted
// page arrives (or timeout) and returns the number of frames observed
// while waiting — a direct slot-count measure of the waiting time.
func (t *Tuner) WaitForPage(want core.PageID, timeout time.Duration) (framesSeen int, err error) {
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return framesSeen, fmt.Errorf("netcast: page %d not received within %v", want, timeout)
		}
		f, err := t.ReadFrame(remaining)
		if err != nil {
			return framesSeen, err
		}
		framesSeen++
		if f.Page == want {
			return framesSeen, nil
		}
	}
}

// LocalAddr returns the tuner's socket address.
func (t *Tuner) LocalAddr() *net.UDPAddr {
	return t.conn.LocalAddr().(*net.UDPAddr)
}

// Close detaches and releases the socket.
func (t *Tuner) Close() error {
	detachErr := t.Detach()
	closeErr := t.conn.Close()
	if detachErr != nil {
		return detachErr
	}
	return closeErr
}
