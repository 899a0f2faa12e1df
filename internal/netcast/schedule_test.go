package netcast

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tcsa/internal/core"
)

func TestServeAndFetchSchedule(t *testing.T) {
	prog := testProgram(t)
	srv := startServer(t, prog, time.Millisecond)
	ss, err := ServeSchedule("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	sched, err := FetchSchedule(ss.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Program.Channels() != prog.Channels() || sched.Program.Length() != prog.Length() {
		t.Fatalf("fetched %dx%d, want %dx%d",
			sched.Program.Channels(), sched.Program.Length(), prog.Channels(), prog.Length())
	}
	if sched.SlotDuration != time.Millisecond {
		t.Errorf("slot duration = %v", sched.SlotDuration)
	}
	if len(sched.ChannelAddrs) != prog.Channels() {
		t.Fatalf("%d channel addrs", len(sched.ChannelAddrs))
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		for col := 0; col < prog.Length(); col++ {
			if sched.Program.At(ch, col) != prog.At(ch, col) {
				t.Fatalf("cell (%d,%d) differs", ch, col)
			}
		}
	}
}

func TestFetchScheduleMultipleClients(t *testing.T) {
	srv := startServer(t, testProgram(t), time.Millisecond)
	ss, err := ServeSchedule("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for i := 0; i < 5; i++ {
		if _, err := FetchSchedule(ss.Addr().String(), 2*time.Second); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := ss.SendErrors(); got != 0 {
		t.Errorf("SendErrors() = %d after five complete fetches, want 0", got)
	}
}

func TestServeScheduleValidation(t *testing.T) {
	if _, err := ServeSchedule("127.0.0.1:0", nil); err == nil {
		t.Error("nil server accepted")
	}
	srv := startServer(t, testProgram(t), time.Millisecond)
	if _, err := ServeSchedule("256.256.256.256:0", srv); err == nil {
		t.Error("bad address accepted")
	}
}

func TestFetchScheduleErrors(t *testing.T) {
	if _, err := FetchSchedule("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("dead endpoint accepted")
	}
}

// TestFetchScheduleRejectsOversized: a peer that streams one byte more
// than the schedule limit is refused with a size error, not truncated
// into a JSON decode error.
func TestFetchScheduleRejectsOversized(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// maxScheduleBytes+1 bytes of JSON whitespace: valid up to the
		// limit, one byte over it.
		chunk := bytes.Repeat([]byte(" "), 1<<20)
		for sent := 0; sent < maxScheduleBytes; sent += len(chunk) {
			if _, err := conn.Write(chunk); err != nil {
				return
			}
		}
		_, _ = conn.Write(chunk[:1])
	}()
	_, err = FetchSchedule(ln.Addr().String(), 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), "schedule exceeds 64 MiB") {
		t.Fatalf("oversized schedule: err = %v, want a size error", err)
	}
}

func TestScheduleLocate(t *testing.T) {
	prog := testProgram(t) // SUSC over {t=2:P=2, t=4:P=3}
	sched := &Schedule{Program: prog}
	// Page 0 (t=2) appears every 2 slots on its channel.
	ch, slot, ok := sched.Locate(0, 0)
	if !ok {
		t.Fatal("page 0 not located")
	}
	if prog.At(ch, slot%prog.Length()) != 0 {
		t.Fatalf("Locate returned (%d,%d) which holds %d", ch, slot, prog.At(ch, slot%prog.Length()))
	}
	// From a later absolute slot, the result advances monotonically.
	_, slot2, ok := sched.Locate(0, slot+1)
	if !ok || slot2 <= slot {
		t.Errorf("Locate(from %d) = %d, want > %d", slot+1, slot2, slot)
	}
	// A page that is never broadcast.
	empty, _ := core.NewProgram(prog.GroupSet(), 1, 4)
	s2 := &Schedule{Program: empty}
	if _, _, ok := s2.Locate(0, 0); ok {
		t.Error("located a page in an empty program")
	}
}

func TestCloseStopsAccepting(t *testing.T) {
	srv := startServer(t, testProgram(t), time.Millisecond)
	ss, err := ServeSchedule("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	addr := ss.Addr().String()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := FetchSchedule(addr, 300*time.Millisecond); err == nil {
		t.Error("fetch succeeded after Close")
	}
}

// TestScheduleSendErrorCounted pins that a schedule send to a client that
// already hung up returns its error and is counted on the server, rather
// than discarded.
func TestScheduleSendErrorCounted(t *testing.T) {
	ss := &ScheduleServer{payload: []byte(`{"program":null}`)}
	server, client := net.Pipe()
	client.Close()
	if err := ss.send(server); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("send to a closed reader: err = %v, want io.ErrClosedPipe", err)
	}
	server, client = net.Pipe()
	client.Close()
	ss.serve(server)
	if got := ss.SendErrors(); got != 1 {
		t.Errorf("SendErrors() = %d after one failed serve, want 1", got)
	}
}
