package netcast

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tcsa/internal/core"
)

// ScheduleServer publishes the broadcast program (and the channel socket
// addresses) over TCP, so clients can become schedule-aware: fetch the
// program once, compute their page's next appearance locally, tune to the
// right channel just in time and doze meanwhile — the software analogue of
// the paper's published-schedule assumption.
//
// Wire format: a single JSON document per connection, then close.
type ScheduleServer struct {
	listener net.Listener
	payload  []byte

	mu       sync.Mutex
	closed   bool
	wg       sync.WaitGroup
	sendErrs atomic.Int64
}

// scheduleDoc is the published document.
type scheduleDoc struct {
	Program  json.RawMessage `json:"program"`
	Channels []string        `json:"channels"` // UDP address per channel
	SlotMS   float64         `json:"slot_ms"`
}

// Schedule is the client-side view of a fetched schedule.
type Schedule struct {
	Program      *core.Program
	ChannelAddrs []*net.UDPAddr
	SlotDuration time.Duration
}

// ServeSchedule starts a TCP listener on addr (e.g. "127.0.0.1:0")
// publishing srv's program and channel addresses. Close the returned
// server to stop.
func ServeSchedule(addr string, srv *Server) (*ScheduleServer, error) {
	if srv == nil {
		return nil, errors.New("netcast: nil broadcast server")
	}
	progJSON, err := json.Marshal(srv.prog)
	if err != nil {
		return nil, fmt.Errorf("netcast: encoding program: %w", err)
	}
	doc := scheduleDoc{
		Program: progJSON,
		SlotMS:  float64(srv.slotDur) / float64(time.Millisecond),
	}
	for _, a := range srv.ChannelAddrs() {
		doc.Channels = append(doc.Channels, a.String())
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcast: listening on %q: %w", addr, err)
	}
	ss := &ScheduleServer{listener: ln, payload: payload}
	ss.wg.Add(1)
	go func() {
		defer ss.wg.Done()
		ss.acceptLoop()
	}()
	return ss, nil
}

// Addr returns the TCP address clients fetch from.
func (ss *ScheduleServer) Addr() net.Addr { return ss.listener.Addr() }

// Close stops the listener and waits for in-flight responses.
func (ss *ScheduleServer) Close() error {
	ss.mu.Lock()
	ss.closed = true
	ss.mu.Unlock()
	err := ss.listener.Close()
	ss.wg.Wait()
	return err
}

func (ss *ScheduleServer) acceptLoop() {
	for {
		conn, err := ss.listener.Accept()
		if err != nil {
			return // closed
		}
		ss.wg.Add(1)
		go func() {
			defer ss.wg.Done()
			ss.serve(conn)
		}()
	}
}

// serve sends the schedule to one client, counts a failed send, and
// closes the connection.
func (ss *ScheduleServer) serve(conn net.Conn) {
	defer conn.Close()
	if err := ss.send(conn); err != nil {
		ss.sendErrs.Add(1)
	}
}

// send writes the schedule document to conn, giving the client five
// seconds to read it.
func (ss *ScheduleServer) send(conn net.Conn) error {
	if err := conn.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return fmt.Errorf("netcast: setting schedule write deadline: %w", err)
	}
	if _, err := conn.Write(ss.payload); err != nil {
		return fmt.Errorf("netcast: sending schedule: %w", err)
	}
	return nil
}

// SendErrors reports how many schedule sends have failed: clients that
// hung up before reading the document or stalled past the write timeout.
func (ss *ScheduleServer) SendErrors() int64 { return ss.sendErrs.Load() }

// maxScheduleBytes bounds the schedule document FetchSchedule accepts.
const maxScheduleBytes = 64 << 20

// FetchSchedule downloads and decodes the published schedule.
func FetchSchedule(addr string, timeout time.Duration) (*Schedule, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("netcast: dialing schedule server: %w", err)
	}
	defer conn.Close()
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("netcast: setting schedule read deadline: %w", err)
	}
	// Read one byte past the limit, so an oversized document is refused
	// as such rather than truncated into a misleading decode error.
	data, err := io.ReadAll(io.LimitReader(conn, maxScheduleBytes+1))
	if err != nil {
		return nil, fmt.Errorf("netcast: reading schedule: %w", err)
	}
	if len(data) > maxScheduleBytes {
		return nil, fmt.Errorf("netcast: schedule exceeds %d MiB", maxScheduleBytes>>20)
	}
	var doc scheduleDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("netcast: decoding schedule: %w", err)
	}
	var prog core.Program
	if err := json.Unmarshal(doc.Program, &prog); err != nil {
		return nil, fmt.Errorf("netcast: decoding program: %w", err)
	}
	sched := &Schedule{
		Program:      &prog,
		SlotDuration: time.Duration(doc.SlotMS * float64(time.Millisecond)),
	}
	if len(doc.Channels) != prog.Channels() {
		return nil, fmt.Errorf("%w: %d channel addresses for %d channels",
			ErrBadFrame, len(doc.Channels), prog.Channels())
	}
	for _, s := range doc.Channels {
		udp, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return nil, fmt.Errorf("netcast: channel address %q: %w", s, err)
		}
		sched.ChannelAddrs = append(sched.ChannelAddrs, udp)
	}
	return sched, nil
}

// Locate returns the channel and column of the next appearance of page at
// or after the given absolute slot, using the fetched program. ok is false
// when the page is never broadcast.
func (s *Schedule) Locate(page core.PageID, fromSlot int) (channel, slot int, ok bool) {
	L := s.Program.Length()
	for step := 0; step < L; step++ {
		abs := fromSlot + step
		col := s.Program.Column(abs)
		for ch := 0; ch < s.Program.Channels(); ch++ {
			if s.Program.At(ch, col) == page {
				return ch, abs, true
			}
		}
	}
	return 0, 0, false
}
