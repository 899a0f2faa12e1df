package core

// AppearanceIndex is the flat CSR-style appearance structure of a program:
// for every page, its sorted distinct appearance columns, stored in a single
// shared column arena instead of one heap slice per page. It is the
// allocation-free backbone of Analyze and Program.Validate.
//
// Layout: page id's columns are cols[offs[id]:offs[id+1]], ascending. Pages
// that never appear have an empty (not nil) range. Columns fit in int32 by
// construction: a Program's length is an int built from slot counts that the
// schedulers keep far below 2^31, and PageID itself is an int32.
type AppearanceIndex struct {
	length int
	offs   []int32 // len Pages()+1; monotone, offs[0] == 0
	cols   []int32 // column arena, grouped by page, ascending within a page
}

// BuildAppearanceIndex scans p's grid and returns its appearance index.
// The build is two linear column-major passes (count, then fill) over the
// grid with O(n) scratch — no per-page append growth, six allocations total
// regardless of how many pages or appearances the program has.
func BuildAppearanceIndex(p *Program) *AppearanceIndex {
	n := p.gs.Pages()
	ix := &AppearanceIndex{
		length: p.length,
		offs:   make([]int32, n+1),
	}
	// mark[id] deduplicates a page broadcast on several channels of the same
	// column. The counting pass stores slot+1 (always positive), the fill
	// pass stores ^slot (always negative), so one array serves both passes
	// without a reset in between.
	scratch := make([]int32, 2*n)
	mark, cur := scratch[:n:n], scratch[n:]

	for slot := 0; slot < p.length; slot++ {
		for ch := 0; ch < p.channels; ch++ {
			id := p.grid[ch*p.length+slot]
			if id == None || mark[id] == int32(slot+1) {
				continue
			}
			mark[id] = int32(slot + 1)
			ix.offs[id+1]++
		}
	}
	for i := 0; i < n; i++ {
		ix.offs[i+1] += ix.offs[i]
	}
	ix.cols = make([]int32, ix.offs[n])
	copy(cur, ix.offs[:n])
	for slot := 0; slot < p.length; slot++ {
		for ch := 0; ch < p.channels; ch++ {
			id := p.grid[ch*p.length+slot]
			if id == None || mark[id] == ^int32(slot) {
				continue
			}
			mark[id] = ^int32(slot)
			ix.cols[cur[id]] = int32(slot)
			cur[id]++
		}
	}
	return ix
}

// Pages returns the number of pages the index covers.
func (ix *AppearanceIndex) Pages() int { return len(ix.offs) - 1 }

// Count returns how many distinct columns page id appears in.
func (ix *AppearanceIndex) Count(id PageID) int {
	return int(ix.offs[id+1] - ix.offs[id])
}

// Columns returns page id's sorted distinct appearance columns as a
// subslice of the shared arena; callers must not modify it. Pages that
// never appear return an empty slice.
func (ix *AppearanceIndex) Columns(id PageID) []int32 {
	return ix.cols[ix.offs[id]:ix.offs[id+1]]
}

// AppendColumns appends page id's appearance columns to dst and returns the
// extended slice, for callers that need []int values.
func (ix *AppearanceIndex) AppendColumns(dst []int, id PageID) []int {
	for _, c := range ix.Columns(id) {
		dst = append(dst, int(c))
	}
	return dst
}

// WorstGap returns the largest cyclic inter-appearance gap of page id in
// slots; pages that never appear report the cycle length.
func (ix *AppearanceIndex) WorstGap(id PageID) int {
	cols := ix.Columns(id)
	if len(cols) == 0 {
		return ix.length
	}
	worst := int(cols[0]) + ix.length - int(cols[len(cols)-1])
	for k := 1; k < len(cols); k++ {
		if g := int(cols[k] - cols[k-1]); g > worst {
			worst = g
		}
	}
	return worst
}
