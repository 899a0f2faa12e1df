package chaos

import (
	"tcsa/internal/core"
	"tcsa/internal/sim"
)

// Walk is one client's wait for its page: the pending appearance, the
// cycles wrapped past the arrival's and the appearances missed so far.
// Start, then Skip each appearance Plan.Charge names, then Wait, all
// under one plan p of one analysed program a.
type Walk struct {
	Next     int64   // absolute slot of the pending appearance
	u        float64 // arrival offset within the cycle
	k        int32   // pending appearance's index in the page's columns
	wraps    int32   // cycles wrapped past the arrival's
	Attempts int32   // appearances missed so far
	Ch       int32   // channel carrying the pending appearance
}

// Start moves a client arriving at cycle offset u to page's first
// appearance at or after u, found through cs (nil binary-searches). It
// reports false when the walk is already over: the page never airs, or
// MaxCycles runs out first (ledgered as Unserved).
func (w *Walk) Start(p *Plan, a *core.Analysis, cs sim.Cursors, page core.PageID, u float64, ledger *Ledger) bool {
	*w = Walk{u: u}
	cols := a.Index().Columns(page)
	if len(cols) == 0 {
		return false
	}
	if w.k = sim.NextIndex(cs, page, cols, u); int(w.k) == len(cols) {
		w.k, w.wraps = 0, 1
	}
	return w.seek(p, a, page, cols, ledger)
}

// Skip charges the missed pending appearance to reason's ledger class and
// to Retries, then moves to the page's next appearance, wrapping after
// its last. It reports false when that crosses MaxCycles (Unserved).
func (w *Walk) Skip(p *Plan, a *core.Analysis, reason SkipReason, page core.PageID, ledger *Ledger) bool {
	ledger.charge(reason)
	w.Attempts++
	cols := a.Index().Columns(page)
	if w.k++; int(w.k) == len(cols) {
		w.k, w.wraps = 0, w.wraps+1
	}
	return w.seek(p, a, page, cols, ledger)
}

func (w *Walk) seek(p *Plan, a *core.Analysis, page core.PageID, cols []int32, ledger *Ledger) bool {
	if int(w.wraps) >= p.MaxCycles() {
		ledger.Unserved++
		return false
	}
	w.Next = int64(w.wraps)*int64(p.length) + int64(cols[w.k])
	w.Ch = a.Channels(page)[w.k]
	return true
}

// Wait is the finished walk's wait in slots: a cycle for a page that
// never airs, MaxCycles cycles for a client that gave up, and otherwise
// the wait to the delivered appearance plus its slot's jitter.
func (w *Walk) Wait(p *Plan, a *core.Analysis, page core.PageID) float64 {
	cols := a.Index().Columns(page)
	L := float64(p.length)
	var wait float64
	switch maxCycles := p.MaxCycles(); {
	case len(cols) == 0:
		return L
	case int(w.wraps) >= maxCycles:
		return float64(maxCycles) * L
	case w.wraps == 0:
		wait = float64(cols[w.k]) - w.u
	default:
		wait = float64(cols[w.k]) + float64(w.wraps)*L - w.u
	}
	// A plan without jitter adds exactly +0.0, so the fault-free wait
	// stays bit-identical to sim.MeasureFold's.
	return wait + p.JitterAt(int(w.Next))
}

// charge counts one missed appearance under its class and in Retries.
func (l *Ledger) charge(reason SkipReason) {
	switch reason {
	case SkipStall:
		l.StallSkips++
	case SkipLoss:
		l.LostDeliveries++
	case SkipCorrupt:
		l.CorruptSkips++
	case SkipChurn:
		l.ChurnSkips++
	case SkipNone: // a delivered appearance is never skipped
	}
	l.Retries++
}
