package main

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServeAndFetchEndToEnd(t *testing.T) {
	// Start the server in the background with a bounded duration and grab
	// a channel address from its output as soon as it prints.
	var serveOut syncBuilder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-serve", "-counts", "2,3", "-t1", "2", "-slot", "2ms", "-duration", "1500ms",
		}, &serveOut)
	}()

	addr := waitForAddr(t, &serveOut)
	var fetchOut strings.Builder
	if err := run([]string{"-fetch", addr, "-page", "0", "-timeout", "3s"}, &fetchOut); err != nil {
		t.Fatalf("fetch: %v (server output: %s)", err, serveOut.String())
	}
	if !strings.Contains(fetchOut.String(), "received page 0 after") {
		t.Errorf("fetch output = %q", fetchOut.String())
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop at -duration")
	}
	for _, want := range []string{"stopped after", "schedule sends failed: 0"} {
		if !strings.Contains(serveOut.String(), want) {
			t.Errorf("server output = %q, want %q in it", serveOut.String(), want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{},         // neither serve nor fetch
		{"-serve"}, // no instance
		{"-serve", "-counts", "x"},
		{"-serve", "-dist", "pareto"},
		{"-fetch", "not-an-addr::"},
		{"-replanafter", "5"}, // without -serve
		{"-serve", "-counts", "2,3", "-t1", "2", "-replanafter", "-1"},
	}
	for _, args := range tests {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestFetchTimesOutOnSilence(t *testing.T) {
	var out strings.Builder
	// Port 9 (discard) on loopback: nothing will answer.
	err := run([]string{"-fetch", "127.0.0.1:9", "-page", "0", "-timeout", "200ms"}, &out)
	if err == nil {
		t.Error("silent channel did not time out")
	}
}

var addrPattern = regexp.MustCompile(`channel 0: ([0-9.]+:[0-9]+)`)

func waitForAddr(t *testing.T, out *syncBuilder) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrPattern.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never printed a channel address: %q", out.String())
	return ""
}

// syncBuilder is a strings.Builder safe for one writer + one reader.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var schedPattern = regexp.MustCompile(`schedule: ([0-9.]+:[0-9]+)`)

func TestSmartFetchEndToEnd(t *testing.T) {
	var serveOut syncBuilder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-serve", "-counts", "2,3", "-t1", "2", "-slot", "2ms", "-duration", "2s",
		}, &serveOut)
	}()

	deadline := time.Now().Add(5 * time.Second)
	var schedAddr string
	for time.Now().Before(deadline) {
		if m := schedPattern.FindStringSubmatch(serveOut.String()); m != nil {
			schedAddr = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if schedAddr == "" {
		t.Fatalf("no schedule address: %q", serveOut.String())
	}
	var fetchOut strings.Builder
	if err := run([]string{"-smart", schedAddr, "-page", "3", "-timeout", "3s"}, &fetchOut); err != nil {
		t.Fatalf("smart fetch: %v", err)
	}
	if !strings.Contains(fetchOut.String(), "received page 3") {
		t.Errorf("smart output = %q", fetchOut.String())
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop")
	}
}

func TestServeChaosEndToEnd(t *testing.T) {
	// Serve through the fault injector at a loss rate low enough that the
	// fetch still succeeds, and verify the fault summary is reported.
	var serveOut syncBuilder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-serve", "-counts", "2,3", "-t1", "2", "-slot", "2ms", "-duration", "1500ms",
			"-loss", "0.2", "-corrupt", "0.05", "-stall", "16/2",
			"-burst", "0.05,0.25,0,0.8", "-chaosseed", "7",
		}, &serveOut)
	}()

	addr := waitForAddr(t, &serveOut)
	var fetchOut strings.Builder
	if err := run([]string{"-fetch", addr, "-page", "0", "-timeout", "3s"}, &fetchOut); err != nil {
		t.Fatalf("fetch under chaos: %v (server output: %s)", err, serveOut.String())
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop at -duration")
	}
	out := serveOut.String()
	if !strings.Contains(out, "fault injection on") {
		t.Errorf("server never announced fault injection: %q", out)
	}
	if !strings.Contains(out, "faults injected:") {
		t.Errorf("server never reported fault stats: %q", out)
	}
}

// TestServeFaultLineWithoutListener serves a lossy broadcast nobody
// tunes in to. Faults belong to the air, not to its listeners: the plan
// drops frames on every channel whether or not a tuner hears them, so
// the fault line must report a nonzero dropped-frame count.
func TestServeFaultLineWithoutListener(t *testing.T) {
	var out strings.Builder
	if err := run([]string{
		"-serve", "-counts", "3,5,3", "-t1", "2", "-loss", "0.5", "-slot", "2ms", "-duration", "300ms",
	}, &out); err != nil {
		t.Fatal(err)
	}
	_, line, ok := strings.Cut(out.String(), "faults injected: ")
	if !ok {
		t.Fatalf("server output = %q, want a fault line", out.String())
	}
	var stalled, dropped, corrupt int
	if _, err := fmt.Sscanf(line, "%d stalled slots, %d dropped frames, %d corrupted frames",
		&stalled, &dropped, &corrupt); err != nil {
		t.Fatalf("fault line %q: %v", line, err)
	}
	if stalled != 0 || dropped == 0 || corrupt != 0 {
		t.Errorf("fault line %q: want 0 stalled slots, some dropped frames, 0 corrupted frames", line)
	}
}

func TestServeLiveReplanEndToEnd(t *testing.T) {
	// Serve with a live replan scheduled mid-run: the engine retires a
	// page, stages the delta, and the broadcast must flip epochs at a
	// cycle boundary while a client keeps fetching through the transition.
	var serveOut syncBuilder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-serve", "-counts", "3,5,3", "-t1", "2", "-slot", "2ms", "-duration", "1500ms",
			"-replanafter", "20",
		}, &serveOut)
	}()

	addr := waitForAddr(t, &serveOut)
	var fetchOut strings.Builder
	if err := run([]string{"-fetch", addr, "-page", "0", "-timeout", "3s"}, &fetchOut); err != nil {
		t.Fatalf("fetch across replan: %v (server output: %s)", err, serveOut.String())
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop at -duration")
	}
	out := serveOut.String()
	if !strings.Contains(out, "live replan staged") {
		t.Errorf("server never staged the replan: %q", out)
	}
	if !strings.Contains(out, "final epoch 1 on air") {
		t.Errorf("server never flipped to the replanned epoch: %q", out)
	}
}

func TestChaosFlagErrors(t *testing.T) {
	tests := [][]string{
		{"-loss", "0.1"},                            // without -serve
		{"-chaosseed", "7"},                         // without -serve
		{"-fetch", "127.0.0.1:1", "-stall", "64/4"}, // without -serve
		{"-serve", "-counts", "2,3", "-t1", "2", "-stall", "bogus"},
		{"-serve", "-counts", "2,3", "-t1", "2", "-burst", "0.1"},
		{"-serve", "-counts", "2,3", "-t1", "2", "-loss", "1.5"},
	}
	for _, args := range tests {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
