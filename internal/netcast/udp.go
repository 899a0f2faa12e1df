package netcast

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
)

// udpJob is one encoded frame handed to a channel's transmit worker. The
// frame travels by value so Publish never allocates and never shares the
// engine's reusable encode buffer across goroutines.
type udpJob struct {
	frame [FrameSize]byte
}

// udpJobQueue is the per-channel mailbox depth. Transmission is
// best-effort like the air: if a worker falls this many slots behind, new
// frames are dropped (and counted in Overruns) rather than stalling the
// slot clock.
const udpJobQueue = 1024

// UDPTransport is the socket-backed Transport: one UDP socket per
// broadcast channel, one transmit worker per channel fanning each frame
// out to that channel's subscribers from a copy-on-write snapshot. The
// per-subscriber send loop is batched through a Batcher (sendmmsg on
// Linux, a portable serial loop elsewhere), so a slot costs
// O(subscribers / batch) syscalls per channel, issued in parallel across
// channels — against O(subscribers) sequential syscalls for the whole
// slot in the pre-Transport server.
//
// Subscription control ("SUB"/"UNS" datagrams on the channel socket) is
// owned by the transport; Server delegates its subscriber accessors here.
type UDPTransport struct {
	conns    []*net.UDPConn
	batchers []*Batcher

	mu   sync.Mutex
	subs []map[string]*net.UDPAddr

	// dests[ch] is the copy-on-write fan-out snapshot of subs[ch]: the
	// control reader swaps in a freshly built DestSet on every SUB/UNS
	// and nobody mutates a published set, so workers read it with one
	// atomic load and no lock.
	dests []atomic.Pointer[DestSet]

	jobs     []chan udpJob
	overruns atomic.Int64

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewUDPTransport binds one socket per channel on host (default
// "127.0.0.1") and starts the control readers and transmit workers.
// channels may be at most 65,536, what a frame's channel field can name;
// a larger count is refused before any socket is bound. Close releases
// everything.
func NewUDPTransport(channels int, host string) (*UDPTransport, error) {
	if channels <= 0 {
		return nil, errors.New("netcast: UDP transport needs at least one channel")
	}
	if channels > maxFrameChannels {
		return nil, fmt.Errorf("netcast: UDP transport of %d channels exceeds the frame's %d", channels, maxFrameChannels)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	t := &UDPTransport{
		subs:  make([]map[string]*net.UDPAddr, channels),
		dests: make([]atomic.Pointer[DestSet], channels),
		jobs:  make([]chan udpJob, channels),
		done:  make(chan struct{}),
	}
	for ch := 0; ch < channels; ch++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(host)})
		if err != nil {
			t.closeConns()
			return nil, fmt.Errorf("netcast: binding channel %d: %w", ch, err)
		}
		t.conns = append(t.conns, conn)
		t.batchers = append(t.batchers, NewBatcher(conn))
		t.subs[ch] = make(map[string]*net.UDPAddr)
		t.jobs[ch] = make(chan udpJob, udpJobQueue)
	}
	for ch := 0; ch < channels; ch++ {
		ch := ch
		t.wg.Add(2)
		go func() {
			defer t.wg.Done()
			t.readControl(ch)
		}()
		go func() {
			defer t.wg.Done()
			t.transmitWorker(ch)
		}()
	}
	return t, nil
}

// Channels implements Transport.
func (t *UDPTransport) Channels() int { return len(t.conns) }

// NeedsFrame implements Transport: a channel nobody subscribes to has no
// datagrams to send, so the engine can skip its encode and fault work.
func (t *UDPTransport) NeedsFrame(ch int) bool {
	ds := t.dests[ch].Load()
	return ds != nil && len(ds.addrs) > 0
}

// Publish implements Transport: hand the frame to channel ch's transmit
// worker. Never blocks — a full mailbox drops the frame (best-effort,
// like the air) and counts it in Overruns.
func (t *UDPTransport) Publish(ch, abs int, frame []byte) {
	var j udpJob
	copy(j.frame[:], frame)
	select {
	case t.jobs[ch] <- j:
	default:
		t.overruns.Add(1)
	}
}

// Skip implements Transport: an unaired channel-slot sends nothing, and
// on UDP a missing datagram needs no marker.
func (t *UDPTransport) Skip(ch, abs int) {}

// EndSlot implements Transport: each frame went to its channel's worker
// on Publish, so the end of a slot sends nothing.
func (t *UDPTransport) EndSlot(abs int) {}

// Overruns reports how many frames were dropped because a channel's
// transmit worker had fallen a full mailbox behind the slot clock.
func (t *UDPTransport) Overruns() int64 { return t.overruns.Load() }

// Close implements Transport: stops the workers, closes the sockets
// (unblocking the control readers) and waits for both to exit. Safe to
// call more than once.
func (t *UDPTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.closeConns()
		t.wg.Wait()
	})
	return nil
}

func (t *UDPTransport) closeConns() {
	for _, c := range t.conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// ChannelAddr returns the UDP address of broadcast channel ch.
func (t *UDPTransport) ChannelAddr(ch int) (*net.UDPAddr, error) {
	if ch < 0 || ch >= len(t.conns) {
		return nil, fmt.Errorf("%w: channel %d", core.ErrSlotRange, ch)
	}
	return t.conns[ch].LocalAddr().(*net.UDPAddr), nil
}

// ChannelAddrs returns all channel addresses in channel order.
func (t *UDPTransport) ChannelAddrs() []*net.UDPAddr {
	addrs := make([]*net.UDPAddr, len(t.conns))
	for ch := range t.conns {
		addrs[ch] = t.conns[ch].LocalAddr().(*net.UDPAddr)
	}
	return addrs
}

// Subscribers returns the current subscriber count of channel ch.
func (t *UDPTransport) Subscribers(ch int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ch < 0 || ch >= len(t.subs) {
		return 0
	}
	return len(t.subs[ch])
}

// Provision bulk-registers addrs as subscribers of channel ch without
// control-plane round-trips — the path load generators and benchmarks use
// to stand up large populations instantly. Entries get synthetic keys, so
// the same address may be provisioned repeatedly (each copy receives its
// own datagram); datagram delivery is indistinguishable from the same
// subscriptions arriving as SUB control messages.
func (t *UDPTransport) Provision(ch int, addrs []*net.UDPAddr) error {
	if ch < 0 || ch >= len(t.subs) {
		return fmt.Errorf("%w: channel %d", core.ErrSlotRange, ch)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.subs[ch])
	for i, a := range addrs {
		t.subs[ch][fmt.Sprintf("%d/%s", base+i, a)] = a
	}
	t.resnap(ch)
	return nil
}

// transmitWorker drains channel ch's mailbox, fanning each frame out to
// the channel's current subscriber snapshot, until Close.
func (t *UDPTransport) transmitWorker(ch int) {
	for {
		select {
		case <-t.done:
			return
		case j := <-t.jobs[ch]:
			if ds := t.dests[ch].Load(); ds != nil {
				t.batchers[ch].Fanout(j.frame[:], ds)
			}
		}
	}
}

// readControl consumes SUB/UNS datagrams on channel ch's socket until it
// is closed.
func (t *UDPTransport) readControl(ch int) {
	buf := make([]byte, 64)
	for {
		n, addr, err := t.conns[ch].ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Close
		}
		switch string(buf[:n]) {
		case string(subscribeMsg):
			t.mu.Lock()
			t.subs[ch][addr.String()] = addr
			t.resnap(ch)
			t.mu.Unlock()
		case string(unsubscribeMsg):
			t.mu.Lock()
			delete(t.subs[ch], addr.String())
			t.resnap(ch)
			t.mu.Unlock()
		default:
			// Unknown control traffic is ignored; the air interface has no
			// back-channel errors either.
		}
	}
}

// resnap publishes a fresh immutable DestSet for subs[ch]. Callers hold mu.
func (t *UDPTransport) resnap(ch int) {
	addrs := make([]*net.UDPAddr, 0, len(t.subs[ch]))
	for _, a := range t.subs[ch] {
		addrs = append(addrs, a)
	}
	t.dests[ch].Store(NewDestSet(addrs))
}

// DestSet is an immutable fan-out target list with the platform-specific
// socket-address representation precomputed per destination, so the hot
// send path performs no per-send conversions.
type DestSet struct {
	addrs []*net.UDPAddr
	sys   destSys
}

// NewDestSet precomputes a fan-out set over addrs. The slice is retained;
// callers must not mutate it afterwards.
func NewDestSet(addrs []*net.UDPAddr) *DestSet {
	return &DestSet{addrs: addrs, sys: makeDestSys(addrs)}
}

// Len reports the number of destinations.
func (d *DestSet) Len() int { return len(d.addrs) }

// Batcher sends one frame to many destinations from a single socket with
// as few syscalls as the platform allows: sendmmsg batches on Linux, a
// plain WriteToUDP loop elsewhere (and as the fallback for destinations
// sendmmsg cannot express). A Batcher is bound to one socket and is not
// safe for concurrent use — each transmit worker owns its own.
type Batcher struct {
	conn *net.UDPConn
	sys  batcherSys
}

// NewBatcher binds a Batcher to conn.
func NewBatcher(conn *net.UDPConn) *Batcher {
	b := &Batcher{conn: conn}
	b.sys = makeBatcherSys(conn)
	return b
}

// Fanout sends frame to every destination in ds, returning how many
// sends were handed to the kernel. Best-effort: failed sends are lost
// frames, exactly like the air.
func (b *Batcher) Fanout(frame []byte, ds *DestSet) int {
	return b.fanout(frame, ds)
}

// serialFanout is the portable one-syscall-per-destination path, also
// used when the batched path cannot express a destination set.
func (b *Batcher) serialFanout(frame []byte, ds *DestSet, from int) int {
	sent := 0
	for _, addr := range ds.addrs[from:] {
		if _, err := b.conn.WriteToUDP(frame, addr); err == nil {
			sent++
		}
	}
	return sent
}
