// Package bdisk implements Broadcast Disks (Acharya, Alonso, Franklin,
// Zdonik; SIGMOD '95) — the classic *mean-access-time* broadcast scheduler
// the paper's introduction positions itself against (its reference [1]).
// Pages are partitioned onto virtual "disks" spinning at different
// relative speeds; each disk is split into chunks and the chunks are
// interleaved so that a disk with relative frequency f contributes a page
// to every f-th minor cycle.
//
// Broadcast Disks knows nothing about expected times: it optimises how
// long an average client waits, not whether a page beats a deadline. The
// package exists as an extension baseline, demonstrating why the
// time-constrained problem needs its own schedulers: under uniform access
// probability the mean-wait-optimal schedule is flat (every page once per
// cycle), which is catastrophic for tight-deadline pages; see the package
// tests and the ablation in EXPERIMENTS.md.
//
// Multi-channel extension: the generated flat slot sequence is striped
// across the channels column-major, preserving relative spacing divided by
// the channel count (the same convention the paper uses for its m-PB
// extension).
package bdisk

import (
	"fmt"

	"tcsa/internal/core"
)

// Disk is one spinning region: a set of pages broadcast Freq times per
// major cycle relative to the slowest disk.
type Disk struct {
	Pages []core.PageID
	Freq  int
}

// DeadlineDisks builds one disk per expected-time group with the
// deadline-proportional frequency t_h/t_i — the broadcast-disk analogue of
// the m-PB frequency assignment. Only tests call it; it stays exported
// because the root package's BenchmarkBDiskBuild builds its disks with it.
//
//lint:ignore testonly disk layout shared by the bdisk tests and the root benchmarks
func DeadlineDisks(gs *core.GroupSet) []Disk {
	th := gs.MaxTime()
	disks := make([]Disk, gs.Len())
	for i := 0; i < gs.Len(); i++ {
		first, count := gs.GroupPages(i)
		pages := make([]core.PageID, count)
		for j := range pages {
			pages[j] = first + core.PageID(j)
		}
		disks[i] = Disk{Pages: pages, Freq: th / gs.Group(i).Time}
	}
	return disks
}

// FlatDisks places every page on one unit-frequency disk: the mean-wait-
// optimal schedule under uniform access probability, and the natural
// deadline-agnostic baseline.
func FlatDisks(gs *core.GroupSet) []Disk {
	pages := make([]core.PageID, gs.Pages())
	for i := range pages {
		pages[i] = core.PageID(i)
	}
	return []Disk{{Pages: pages, Freq: 1}}
}

// Build generates the broadcast-disk program over the given channels.
func Build(gs *core.GroupSet, disks []Disk, channels int) (*core.Program, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", core.ErrInvalidGroupSet)
	}
	if channels < 1 {
		return nil, fmt.Errorf("%w: %d channels", core.ErrInsufficientChannels, channels)
	}
	if len(disks) == 0 {
		return nil, fmt.Errorf("bdisk: no disks")
	}
	seen := make([]bool, gs.Pages())
	for d, disk := range disks {
		if disk.Freq < 1 {
			return nil, fmt.Errorf("bdisk: disk %d frequency %d", d, disk.Freq)
		}
		if len(disk.Pages) == 0 {
			return nil, fmt.Errorf("bdisk: disk %d empty", d)
		}
		for _, p := range disk.Pages {
			if p < 0 || int(p) >= gs.Pages() {
				return nil, fmt.Errorf("%w: %d on disk %d", core.ErrPageRange, p, d)
			}
			if seen[p] {
				return nil, fmt.Errorf("bdisk: page %d on two disks", p)
			}
			seen[p] = true
		}
	}
	for p, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("bdisk: page %d on no disk", p)
		}
	}

	seq := interleave(disks)
	length := core.CeilDiv(len(seq), channels)
	prog, err := core.NewProgram(gs, channels, length)
	if err != nil {
		return nil, err
	}
	for i, page := range seq {
		if page == core.None {
			continue // chunk padding
		}
		if err := prog.Place(i%channels, i/channels, page); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// interleave runs the SIGMOD '95 algorithm, producing the single-channel
// slot sequence (core.None marks chunk padding).
func interleave(disks []Disk) []core.PageID {
	// max_chunks = lcm of frequencies; disk j is split into
	// max_chunks/Freq_j chunks.
	maxChunks := 1
	for _, d := range disks {
		maxChunks = lcm(maxChunks, d.Freq)
	}
	type chunked struct {
		chunks    int // number of chunks
		chunkSize int // pages per chunk (last padded)
	}
	layout := make([]chunked, len(disks))
	for j, d := range disks {
		numChunks := maxChunks / d.Freq
		layout[j] = chunked{
			chunks:    numChunks,
			chunkSize: core.CeilDiv(len(d.Pages), numChunks),
		}
	}
	var seq []core.PageID
	for minor := 0; minor < maxChunks; minor++ {
		for j, d := range disks {
			c := minor % layout[j].chunks
			size := layout[j].chunkSize
			for k := 0; k < size; k++ {
				idx := c*size + k
				if idx < len(d.Pages) {
					seq = append(seq, d.Pages[idx])
				} else {
					seq = append(seq, core.None)
				}
			}
		}
	}
	return seq
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
