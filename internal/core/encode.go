package core

import (
	"encoding/json"
	"fmt"
)

// programJSON is the stable on-disk representation of a Program. The grid
// is stored row-major with -1 for empty cells, so files are readable and
// diff-able; versioning guards future format changes.
type programJSON struct {
	Version  int       `json:"version"`
	Groups   []Group   `json:"groups"`
	Channels int       `json:"channels"`
	Length   int       `json:"length"`
	Grid     [][]int32 `json:"grid"` // [channel][slot], -1 = empty
}

// encodingVersion identifies the current file format.
const encodingVersion = 1

// groupSetJSON mirrors GroupSet for encoding.
type groupSetJSON struct {
	Groups []Group `json:"groups"`
}

// MarshalJSON encodes the group set as its group list.
func (gs *GroupSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(groupSetJSON{Groups: gs.groups})
}

// UnmarshalJSON decodes and re-validates a group set.
func (gs *GroupSet) UnmarshalJSON(data []byte) error {
	var raw groupSetJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("core: decoding group set: %w", err)
	}
	decoded, err := NewGroupSet(raw.Groups)
	if err != nil {
		return err
	}
	*gs = *decoded
	return nil
}

// MarshalJSON encodes the program, including its instance, so a file is
// self-contained.
func (p *Program) MarshalJSON() ([]byte, error) {
	grid := make([][]int32, p.channels)
	for ch := 0; ch < p.channels; ch++ {
		row := make([]int32, p.length)
		for slot := 0; slot < p.length; slot++ {
			row[slot] = int32(p.At(ch, slot))
		}
		grid[ch] = row
	}
	return json.Marshal(programJSON{
		Version:  encodingVersion,
		Groups:   p.gs.groups,
		Channels: p.channels,
		Length:   p.length,
		Grid:     grid,
	})
}

// UnmarshalJSON decodes a program, re-validating the instance, the grid
// dimensions and every cell's page ID.
func (p *Program) UnmarshalJSON(data []byte) error {
	var raw programJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("core: decoding program: %w", err)
	}
	if raw.Version != encodingVersion {
		return fmt.Errorf("%w: unsupported program version %d", ErrInvalidProgram, raw.Version)
	}
	gs, err := NewGroupSet(raw.Groups)
	if err != nil {
		return err
	}
	// Check the grid's shape before NewProgram allocates channels*length
	// cells: the allocation is then bounded by the cells actually decoded,
	// not by what the document declares.
	if len(raw.Grid) != raw.Channels {
		return fmt.Errorf("%w: %d grid rows for %d channels", ErrInvalidProgram, len(raw.Grid), raw.Channels)
	}
	for ch, row := range raw.Grid {
		if len(row) != raw.Length {
			return fmt.Errorf("%w: row %d has %d slots, want %d", ErrInvalidProgram, ch, len(row), raw.Length)
		}
	}
	prog, err := NewProgram(gs, raw.Channels, raw.Length)
	if err != nil {
		return err
	}
	for ch, row := range raw.Grid {
		for slot, v := range row {
			if v == int32(None) {
				continue
			}
			if err := prog.Place(ch, slot, PageID(v)); err != nil {
				return fmt.Errorf("core: decoding cell (%d,%d): %w", ch, slot, err)
			}
		}
	}
	*p = *prog
	return nil
}
