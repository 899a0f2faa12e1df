package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunMatrixWritesResults drives a small two-cell matrix end to end:
// one fault-free cell (which must self-verify against sim.MeasureStream)
// and one faulted cell, both persisted under the results schema.
func TestRunMatrixWritesResults(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	err := run([]string{
		"-clients", "2000",
		"-dists", "uniform",
		"-loss", "0,0.1",
		"-churn", "0.05",
		"-corrupt", "0.02",
		"-seed", "3",
		"-workers", "2",
		"-out", dir,
		"-stamp", "test",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "avg_wait") {
		t.Errorf("missing table header:\n%s", out)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "test"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("want 2 result dirs, got %d", len(entries))
	}
	for _, e := range entries {
		for _, name := range []string{"config.json", "summary.json", "ledger.json"} {
			path := filepath.Join(dir, "test", e.Name(), name)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var v map[string]any
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Errorf("%s: invalid JSON: %v", path, err)
			}
		}
	}
}

// TestRunVerifiesZeroFault pins the in-process identity check: a
// fault-free scenario must report the bit-identity verification line.
func TestRunVerifiesZeroFault(t *testing.T) {
	var buf strings.Builder
	err := run([]string{
		"-clients", "1000",
		"-seed", "2",
		"-out", "", // no artifacts
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "verified bit-identical to sim.MeasureStream") {
		t.Errorf("missing zero-fault verification:\n%s", buf.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-dists", "nope"},
		{"-channels", "x"},
		{"-loss", "many"},
		{"-pagechoice", "powerlaw"},
	}
	for _, args := range cases {
		var buf strings.Builder
		if err := run(append(args, "-out", ""), &buf); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}
