package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestListFlag(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	for _, name := range []string{
		"slotmath", "checkerr", "floateq", "copylock", "exhaustenum", "nopanic",
		"detmap", "wallclock", "ctxflow", "atomicmix", "lockbal", "testonly",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-only", "nosuchcheck"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "nosuchcheck") {
		t.Errorf("stderr %q does not name the bad analyzer", errw.String())
	}
}

func TestCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	var out, errw strings.Builder
	if code := run([]string{"tcsa/internal/core"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d on internal/core\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if out.String() != "" {
		t.Errorf("unexpected findings: %s", out.String())
	}
}

func TestJSONOutputCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	var out, errw strings.Builder
	if code := run([]string{"-json", "tcsa/internal/core"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw.String())
	}
	var report []jsonDiagnostic
	if err := json.Unmarshal([]byte(out.String()), &report); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(report) != 0 {
		t.Errorf("unexpected findings on a clean package: %v", report)
	}
}
