package netcast

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tcsa/internal/core"
)

// FaultInjector decides, per absolute slot, whether the server's
// transmission is impaired. The contract matches chaos.Plan so a
// deterministic fault schedule drives the real broadcaster with no
// adapter: Stalled silences every channel for the slot, Drop suppresses
// one channel's frame, Corrupt flips a payload byte after the checksum
// is computed so tuners detect and discard the frame.
type FaultInjector interface {
	Stalled(slot int) bool
	Drop(channel, slot int) bool
	Corrupt(channel, slot int) bool
}

// ServerConfig tunes a Server.
type ServerConfig struct {
	// SlotDuration is the real-time length of one broadcast slot; must be
	// positive. Tests use ~1ms; a production deployment would match the
	// page transmission time of its radio link.
	SlotDuration time.Duration
	// Host is the interface to bind, default "127.0.0.1". One UDP socket is
	// opened per broadcast channel on an ephemeral port. Ignored when
	// Transport is set.
	//lint:ignore testonly deployment setting: the interface a real server binds
	Host string
	// Fault, when non-nil, injects transmission faults per slot. The slot
	// counter still advances during a stall: broadcast time is locked to
	// the wall clock, a stalled server simply wastes its slots.
	Fault FaultInjector
	// Transport, when non-nil, replaces the default UDP transport — e.g. a
	// BroadcastRing for in-process load generation. The server takes
	// ownership: Stop closes it. Channel count must match the program.
	Transport Transport
}

// Server replays a broadcast program in real time: one tick per slot,
// each tick encoded once per channel by a Caster and fanned out through
// a pluggable Transport (UDP sockets by default, an in-process
// BroadcastRing for load generation).
type Server struct {
	prog    *core.Program
	slotDur time.Duration
	caster  *Caster
	tr      Transport
	udp     *UDPTransport // non-nil iff tr is the default UDP transport

	mu   sync.Mutex
	slot uint32

	stopOnce sync.Once
	stopped  chan struct{}
}

// NewServer builds the transport (binding the per-channel sockets unless
// cfg.Transport overrides it); call Run to start transmitting.
func NewServer(prog *core.Program, cfg ServerConfig) (*Server, error) {
	if prog == nil {
		return nil, errors.New("netcast: nil program")
	}
	if cfg.SlotDuration <= 0 {
		return nil, fmt.Errorf("netcast: slot duration %v", cfg.SlotDuration)
	}
	s := &Server{
		prog:    prog,
		slotDur: cfg.SlotDuration,
		tr:      cfg.Transport,
		stopped: make(chan struct{}),
	}
	if s.tr == nil {
		udp, err := NewUDPTransport(prog.Channels(), cfg.Host)
		if err != nil {
			return nil, err
		}
		s.tr = udp
		s.udp = udp
	}
	caster, err := NewCaster(prog, s.tr, cfg.Fault)
	if err != nil {
		if s.udp != nil {
			_ = s.udp.Close()
		}
		return nil, err
	}
	s.caster = caster
	return s, nil
}

// ChannelAddrs returns all channel addresses in channel order, or nil if
// the server is not using the UDP transport.
func (s *Server) ChannelAddrs() []*net.UDPAddr {
	if s.udp == nil {
		return nil
	}
	return s.udp.ChannelAddrs()
}

// Slot returns the next slot index to transmit.
func (s *Server) Slot() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slot
}

// Faults reports the faults injected so far. Safe to call concurrently
// with Run.
func (s *Server) Faults() FaultStats {
	return s.caster.Faults()
}

// StageProgram stages the next epoch's program for a zero-pause live
// transition: the running program keeps airing and the tick loop flips at
// the next slot that starts one of its cycles. Safe to call while Run is
// transmitting; pass an immutable snapshot (replan.Engine.Snapshot).
func (s *Server) StageProgram(next *core.Program) error {
	return s.caster.StageProgram(next)
}

// Epoch reports the program epoch currently on air.
func (s *Server) Epoch() EpochInfo { return s.caster.Epoch() }

// Run transmits until ctx is cancelled or Stop is called; the transport
// owns its own reader/worker goroutines, Run owns only the slot clock.
func (s *Server) Run(ctx context.Context) error {
	ticker := time.NewTicker(s.slotDur)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			s.Stop()
			return ctx.Err()
		case <-s.stopped:
			return nil
		case <-ticker.C:
			s.transmit()
		}
	}
}

// Stop ends transmission, closes the transport and unblocks Run. Safe to
// call more than once and concurrently with Run.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopped)
		_ = s.tr.Close()
	})
}

// transmit claims the next slot under the lock and hands it to the slot
// engine; all fan-out happens behind the Transport.
func (s *Server) transmit() {
	s.mu.Lock()
	slot := s.slot
	s.slot++
	s.mu.Unlock()
	s.caster.CastSlot(int(slot))
}
