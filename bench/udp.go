package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// UDP air: the paper program aired in real time by netcast.Server over UDP
// loopback. Two tuners listen on channels 0 and 1; each of those channels
// also carries udpCopies more subscriptions of its tuner's address, which
// sets the datagram rate: about 64,000 a second. The slot lasts 4 ms, not
// 1 ms at a quarter of the copies, because the server's ticker drops every
// tick it is more than a slot late for: at 1 ms the slot clock ran 5% to
// 29% slow, depending on how loaded the shared host was, and at 4 ms it
// holds within 1%.
const (
	udpSlot         = 4 * time.Millisecond
	udpTuned        = 2
	udpCopies       = 128
	udpRate         = 512.0 // client arrivals per nominal slot, before keeping the tuned channels' pages
	udpSetupBatches = 10
	udpToyAir       = 300 * time.Millisecond
	udpReadTimeout  = 50 * time.Millisecond
)

// stampedTransport wraps the UDP transport and stamps every Publish, so a
// tuner can tell how long a frame took from the slot engine to its read.
// Publish runs on the server's slot clock goroutine only.
type stampedTransport struct {
	*netcast.UDPTransport
	epoch  time.Time
	stamps [udpTuned][]atomic.Int64 // ns since epoch, per (tuned channel, slot)
	busyNs int64
	calls  int64
	spans  *batch
}

func (t *stampedTransport) Publish(ch, abs int, frame []byte) {
	m := t.spans.mark()
	t0 := time.Since(t.epoch)
	if ch < udpTuned && abs < len(t.stamps[ch]) {
		t.stamps[ch][abs].Store(int64(t0))
	}
	t.UDPTransport.Publish(ch, abs, frame)
	t.busyNs += int64(time.Since(t.epoch) - t0)
	t.calls++
	t.spans.done(m, 1)
}

// udpReceipts is what one tuner read.
type udpReceipts struct {
	read     []bool    // per slot: at least one copy was read
	latency  []float64 // per datagram read: µs since its Publish
	received int64
	bad      int64
}

func udpAir(r *run) error {
	in, err := r.prepare(1)
	if err != nil {
		return err
	}
	prog := in.prog()
	r.tr.setRep(0) // the one timed repetition: set-up batches around the air
	setup := func() error {
		for i := 0; i < udpSetupBatches/2; i++ {
			if _, err := r.setupBatch(paperSetupBuilds, 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setup(); err != nil {
		return err
	}
	air := r.budget
	if r.toy {
		air = udpToyAir
	}
	// The slot clock cannot run ahead of the wall clock, so this bounds
	// the slots aired.
	maxSlots := int(air/udpSlot) + 1024

	udp, err := netcast.NewUDPTransport(prog.Channels(), "")
	if err != nil {
		return err
	}
	tr := &stampedTransport{UDPTransport: udp, epoch: time.Now(), spans: r.tr.batch("netcast.UDPTransport.Publish", 0)}
	for ch := range tr.stamps {
		tr.stamps[ch] = make([]atomic.Int64, maxSlots)
	}
	srv, err := netcast.NewServer(prog, netcast.ServerConfig{SlotDuration: udpSlot, Transport: tr})
	if err != nil {
		_ = udp.Close() // the server did not take ownership
		return err
	}
	defer srv.Stop()

	tuners := make([]*netcast.Tuner, udpTuned)
	for ch := range tuners {
		if tuners[ch], err = udpTune(udp, ch); err != nil {
			return err
		}
		defer tuners[ch].Close() // teardown: unsubscribing from a stopped server may fail
	}

	// One latency buffer for every tuner, each filling its own part, so
	// pooling them at the end allocates nothing.
	perTuner := (udpCopies + 1) * maxSlots
	pool := make([]float64, udpTuned*perTuner)
	receipts := make([]*udpReceipts, udpTuned)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for ch := range tuners {
		receipts[ch] = &udpReceipts{
			read:    make([]bool, maxSlots),
			latency: pool[ch*perTuner : ch*perTuner : (ch+1)*perTuner],
		}
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			udpRead(tuners[ch], ch, prog, tr, receipts[ch], &stop)
		}(ch)
	}

	// The peak RSS covers the air and the clients' reckoning, not the
	// set-up batches around them. Their garbage is collected and handed
	// back to the kernel first: how much of it the runtime still held when
	// the high-water mark was reset otherwise moved the peak by a third
	// from one run to the next. The air is paced by the wall clock, so the
	// pages the runtime faults back in cost it nothing.
	debug.FreeOSMemory()
	perRun := resetPeakRSS()
	ctx, cancel := context.WithTimeout(context.Background(), air)
	start := time.Since(tr.epoch)
	err = srv.Run(ctx)
	wall := (time.Since(tr.epoch) - start).Seconds()
	cancel()
	// Run stops the server and closes the transport; the readers drain
	// what is in flight and leave at their first read timeout.
	stop.Store(true)
	wg.Wait()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	slots := int(srv.Slot())

	for ch, rc := range receipts {
		if rc.bad > 0 {
			return gatef("udp-air: %d frames on channel %d did not carry the program's page", rc.bad, ch)
		}
	}

	// Clients arrive over the first half of the nominal slots, a Poisson
	// stream, and wait for the first slot at or after their arrival in
	// which a tuner read a copy of their page. The second half leaves
	// every one of them a full cycle on air, however late the slot clock
	// runs.
	window := int(air/udpSlot) / 2
	stream, err := workload.NewPoissonStream(in.gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: int(udpRate * float64(window)), Seed: r.seed},
		Rate:          udpRate,
	})
	if err != nil {
		return err
	}
	w, err := udpClients(prog, stream, receipts, slots, window)
	if err != nil {
		return err
	}
	if perRun {
		r.sample("rss_peak_mb", peakRSSMiB())
	}
	if err := setup(); err != nil {
		return err
	}
	lat := pool[:0]
	var received int64
	for _, rc := range receipts {
		lat = append(lat, rc.latency...) // moves down within pool
		received += rc.received
	}
	r.samplePooled("air_latency_us", lat)
	r.sample("clients_per_s", float64(w.served)/wall)
	r.sample("air_slots_per_s", float64(slots)/wall)
	r.sample("wait_avg_slots", w.wait.Mean())
	r.sample("wait_p99_slots", w.waitSk.Quantile(0.99))
	r.sample("avg_delay_slots", w.delay.Mean())
	r.sample("miss_ratio", float64(w.misses)/float64(max(w.served, 1)))
	r.attempted += w.served + w.unserved
	r.failed += w.unserved

	if r.tr == nil {
		return nil
	}
	tr.spans.flush()
	r.instanceLayers(in)
	r.setupLayers(timedRep)
	if err := r.replayLayers(in.a, stream, int64(slots), nil, waitsOf(in.a, stream)); err != nil {
		return err
	}
	expected := int64(slots) * udpTuned * (udpCopies + 1)
	r.layers["netcast.udp_publish_ns"] = float64(tr.busyNs) / float64(max(tr.calls, 1))
	r.layers["netcast.udp_overruns"] = float64(udp.Overruns())
	r.layers["netcast.frames_received"] = float64(received)
	r.layers["netcast.frames_lost"] = float64(max(expected-received, 0))
	r.layers["netcast.tick_slip"] = 1 - float64(slots)/(wall/udpSlot.Seconds())
	return nil
}

// udpTune subscribes a fresh tuner to channel ch, waits until the server
// has registered it, and provisions udpCopies more copies of its address.
func udpTune(udp *netcast.UDPTransport, ch int) (*netcast.Tuner, error) {
	addr, err := udp.ChannelAddr(ch)
	if err != nil {
		return nil, err
	}
	t, err := netcast.NewTuner()
	if err != nil {
		return nil, err
	}
	if err := t.Tune(addr); err != nil {
		_ = t.Close()
		return nil, err
	}
	for deadline := time.Now().Add(2 * time.Second); udp.Subscribers(ch) == 0; {
		if time.Now().After(deadline) {
			_ = t.Close()
			return nil, fmt.Errorf("udp-air: channel %d never registered its tuner", ch)
		}
		time.Sleep(time.Millisecond)
	}
	copies := make([]*net.UDPAddr, udpCopies)
	for i := range copies {
		copies[i] = t.LocalAddr()
	}
	if err := udp.Provision(ch, copies); err != nil {
		_ = t.Close()
		return nil, err
	}
	return t, nil
}

// udpRead reads frames until stop is set and a read times out, checking
// each against the program and recording its latency since Publish.
func udpRead(t *netcast.Tuner, ch int, prog *core.Program, tr *stampedTransport, rc *udpReceipts, stop *atomic.Bool) {
	for {
		f, err := t.ReadFrame(udpReadTimeout)
		now := int64(time.Since(tr.epoch))
		if err != nil {
			if stop.Load() {
				return
			}
			continue // a quiet read window while the air runs
		}
		slot := int(f.Slot)
		if f.Channel != ch || slot >= len(rc.read) || f.Page != prog.At(ch, prog.Column(slot)) {
			rc.bad++
			continue
		}
		rc.received++
		if st := tr.stamps[ch][slot].Load(); st > 0 {
			rc.latency = append(rc.latency, float64(now-st)/1e3)
		}
		rc.read[slot] = true
	}
}

// udpWaits is the client-side outcome of the UDP air.
type udpWaits struct {
	served, unserved, misses int64
	wait, delay              stats.Online
	waitSk                   *stats.Sketch
}

// udpClients serves the stream's clients that arrive before slot window
// and ask for a page of the tuned channels, from what the tuners read. A
// client arriving at u waits until the first slot at or after u in which a
// tuner read its page, so a datagram the host dropped lengthens its wait.
// The wait is in slots of the server's clock; how late that clock ran on
// the wall clock is netcast.tick_slip.
func udpClients(prog *core.Program, stream workload.Stream, receipts []*udpReceipts, slots, window int) (*udpWaits, error) {
	gs := prog.GroupSet()
	tuned := make([]bool, gs.Pages())
	for ch := 0; ch < udpTuned; ch++ {
		for col := 0; col < prog.Length(); col++ {
			if p := prog.At(ch, col); p != core.None {
				tuned[p] = true
			}
		}
	}
	reads := make([][]int, gs.Pages())
	for ch, rc := range receipts {
		for slot := 0; slot < slots && slot < len(rc.read); slot++ {
			if !rc.read[slot] {
				continue
			}
			if p := prog.At(ch, prog.Column(slot)); p != core.None {
				reads[p] = append(reads[p], slot)
			}
		}
	}
	for _, rs := range reads {
		sort.Ints(rs)
	}
	sk, err := sketchFor(prog.Length())
	if err != nil {
		return nil, err
	}
	w := &udpWaits{waitSk: sk}
	cur := stream.NewCursor()
	var req workload.Request
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&req) {
			if !tuned[req.Page] || req.Arrival >= float64(window) {
				continue
			}
			rs := reads[req.Page]
			i := sort.SearchInts(rs, int(math.Ceil(req.Arrival)))
			if i == len(rs) {
				w.unserved++
				continue
			}
			wait := float64(rs[i]) - req.Arrival
			d := math.Max(0, wait-float64(gs.TimeOf(req.Page)))
			w.wait.Add(wait)
			w.waitSk.Add(wait)
			w.delay.Add(d)
			if d > 0 {
				w.misses++
			}
			w.served++
		}
	}
	return w, nil
}
