// Package perf defines the benchmark-trajectory report that every
// `airbench -gate` writes (BENCH_<name>_new.json) and the comparator that
// holds it to the committed BENCH_<name>.json baseline.
//
// A report is a flat list of named samples. Each sample carries the three
// cost metrics of one benchmark (ns/op, allocs/op, B/op) plus an optional
// checksum over the result series the benchmark computed, so a comparison
// can distinguish "costs more" from "now computes something different".
//
// Compare holds a report to its baseline by one fixed rule over the
// deterministic signals, checksums and allocation counts. Wall time is
// noisy on shared runners, so ns/op is recorded but never compared.
//
// The package is deliberately pure data + comparison: it does not import
// testing, run benchmarks, or know how samples are produced.
package perf

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
)

// SchemaVersion identifies the report layout. Bump it on incompatible
// changes; Compare refuses to diff reports with different schemas.
const SchemaVersion = 1

// Sample is one benchmark measurement.
type Sample struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Checksum fingerprints the numeric series the benchmarked code
	// produced (see SeriesChecksum); empty when the benchmark has no
	// meaningful output to fingerprint.
	Checksum string `json:"checksum,omitempty"`
}

// Report is one BENCH_<name>.json document.
type Report struct {
	Schema   int      `json:"schema"`
	GOOS     string   `json:"goos"`
	GOARCH   string   `json:"goarch"`
	MaxProcs int      `json:"maxprocs"`
	Samples  []Sample `json:"samples"`
}

// Find returns the sample with the given name, or nil.
func (r *Report) Find(name string) *Sample {
	for i := range r.Samples {
		if r.Samples[i].Name == name {
			return &r.Samples[i]
		}
	}
	return nil
}

// WriteFile marshals the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("perf: marshal report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	return &r, nil
}

// SeriesChecksum fingerprints a float series with FNV-1a over the exact
// IEEE-754 bits, little-endian. Bit-identical series — the contract the
// sweep engine and analysis refactors are held to — therefore produce
// identical checksums, and any numeric drift changes them.
func SeriesChecksum(vals []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// maxAllocGrowth is the fixed allocs/op bound: a sample fails when its
// allocs/op exceed both baseline*maxAllocGrowth and baseline+allocSlack.
// The absolute slack keeps tiny baselines (e.g. 6 allocs) from tripping
// on a single extra allocation.
const (
	maxAllocGrowth = 1.5
	allocSlack     = 2
)

// Regression is one detected degradation.
type Regression struct {
	Sample string  // sample name
	Metric string  // "allocs/op", "checksum", "missing", "schema"
	Base   float64 // baseline value (0 for non-numeric metrics)
	Cur    float64 // current value (0 for non-numeric metrics)
	Detail string  // human-readable explanation
}

func (r Regression) String() string {
	return fmt.Sprintf("%s [%s]: %s", r.Sample, r.Metric, r.Detail)
}

// Compare diffs cur against base and returns every regression found:
// schema mismatches, samples that disappeared, checksum drift, and
// allocs/op growth beyond maxAllocGrowth and allocSlack. A nil/empty
// result means cur is acceptable. Samples present only in cur are new
// benchmarks, not regressions.
func Compare(base, cur *Report) []Regression {
	var regs []Regression
	if base.Schema != cur.Schema {
		return []Regression{{
			Metric: "schema",
			Base:   float64(base.Schema),
			Cur:    float64(cur.Schema),
			Detail: fmt.Sprintf("baseline schema %d vs current %d", base.Schema, cur.Schema),
		}}
	}
	for _, b := range base.Samples {
		c := cur.Find(b.Name)
		if c == nil {
			regs = append(regs, Regression{
				Sample: b.Name,
				Metric: "missing",
				Detail: "sample present in baseline but absent from current report",
			})
			continue
		}
		if b.Checksum != "" && c.Checksum != "" && b.Checksum != c.Checksum {
			regs = append(regs, Regression{
				Sample: b.Name,
				Metric: "checksum",
				Detail: fmt.Sprintf("series checksum drifted: %s -> %s", b.Checksum, c.Checksum),
			})
		}
		if c.AllocsPerOp > b.AllocsPerOp+allocSlack &&
			float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*maxAllocGrowth {
			regs = append(regs, Regression{
				Sample: b.Name,
				Metric: "allocs/op",
				Base:   float64(b.AllocsPerOp),
				Cur:    float64(c.AllocsPerOp),
				Detail: fmt.Sprintf("allocs/op grew %d -> %d (limit %.2fx)", b.AllocsPerOp, c.AllocsPerOp, maxAllocGrowth),
			})
		}
	}
	return regs
}
