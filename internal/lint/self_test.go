package lint

import (
	"path/filepath"
	"testing"
)

// TestAirvetSelfCheck enforces the suite's core contract: airvet runs
// clean on this repository, loading both modules at once (from bench/,
// `tcsa/...` names every package of each) so testonly sees every non-test
// reference. Any new violation — raw slot arithmetic, a dropped
// constructor error, a float equality in the delay math, an exported name
// only tests use — fails this test (and the scripts/check.sh gate) until
// fixed or explicitly suppressed with a justified //lint:ignore.
func TestAirvetSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check shells out to the go tool for export data")
	}
	root, err := RootDir(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(filepath.Join(root, "bench"), []string{"tcsa/..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
