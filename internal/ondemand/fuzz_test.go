package ondemand

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tcsa/internal/stats"
)

// modelRun replays a submission schedule through a deliberately naive
// reference model of the server: a plain slice instead of a heap, linear
// scans instead of sift-ups, and the tie rule made explicit — every
// submission carries a smaller sequence number than any completion, so at
// equal times submissions win; among completions, scheduling order wins. It returns the completion log
// (tag, submitted, completed) and the reference metrics counters.
type modelCompletion struct {
	tag                  uint64
	submitted, completed float64
}

type modelOutcome struct {
	log       []modelCompletion
	responses []float64
	rejected  int
	misses    int
	maxQ      int
}

type modelSub struct {
	at, deadline float64
	tag          uint64
}

func modelRun(subs []modelSub, cfg Config) modelOutcome {
	type inService struct {
		tag             uint64
		submitted, done float64
		seq             int
		deadline        float64
	}
	type waiting struct {
		deadline float64
		seq      int // submission order = heap seq order
		tag      uint64
		at       float64
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	var out modelOutcome
	var queue []waiting
	var busy []inService
	compSeq := len(subs) // completions are scheduled after every upfront At
	subSeq := 0
	next := 0 // next submission index
	start := func(tag uint64, deadline, submitted, now float64) {
		busy = append(busy, inService{tag: tag, submitted: submitted,
			done: now + cfg.ServiceTime, seq: compSeq, deadline: deadline})
		compSeq++
	}
	for next < len(subs) || len(busy) > 0 {
		// Earliest pending completion, ties by scheduling seq.
		ci := -1
		for i, b := range busy {
			if ci < 0 || b.done < busy[ci].done ||
				(b.done == busy[ci].done && b.seq < busy[ci].seq) {
				ci = i
			}
		}
		// Submissions at the same instant precede completions (smaller seq).
		if next < len(subs) && (ci < 0 || subs[next].at <= busy[ci].done) {
			s := subs[next]
			next++
			if len(busy) < cfg.Workers {
				start(s.tag, s.deadline, s.at, s.at)
				continue
			}
			if cfg.QueueLimit > 0 && len(queue) >= cfg.QueueLimit {
				out.rejected++
				continue
			}
			queue = append(queue, waiting{deadline: s.deadline, seq: subSeq, tag: s.tag, at: s.at})
			subSeq++
			if len(queue) > out.maxQ {
				out.maxQ = len(queue)
			}
			continue
		}
		b := busy[ci]
		busy = append(busy[:ci], busy[ci+1:]...)
		out.log = append(out.log, modelCompletion{b.tag, b.submitted, b.done})
		out.responses = append(out.responses, b.done-b.submitted)
		if b.done > b.deadline {
			out.misses++
		}
		if len(queue) > 0 {
			wi := 0
			for i, w := range queue {
				if cfg.Discipline == EDF {
					if w.deadline < queue[wi].deadline ||
						(w.deadline == queue[wi].deadline && w.seq < queue[wi].seq) {
						wi = i
					}
				} else if w.seq < queue[wi].seq {
					wi = i
				}
			}
			w := queue[wi]
			queue = append(queue[:wi], queue[wi+1:]...)
			start(w.tag, w.deadline, w.at, b.done)
		}
	}
	return out
}

// FuzzOndemandQueue drives random submit/complete interleavings through the
// server and checks its contracts against the linear-scan model: the
// completion log matches event for event (which pins EDF's (deadline, seq)
// order and FCFS's seq order, including tie-breaks at simultaneous
// completions), the counters conserve requests, and the time-weighted queue
// length stays within [0, MaxQueueLen]. Discrete submission times and
// service durations make equal-instant collisions the common case rather
// than the rare one.
func FuzzOndemandQueue(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(1), uint8(3), uint8(0), uint8(0))
	f.Add(int64(2), uint8(80), uint8(3), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(12), uint8(2), uint8(7), uint8(1), uint8(2))
	f.Add(int64(4), uint8(255), uint8(1), uint8(4), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, count, workersB, svcB, discB, limitB uint8) {
		cfg := Config{
			ServiceTime: 0.25 * float64(1+int(svcB)%8),
			Workers:     1 + int(workersB)%4,
			Discipline:  Discipline(int(discB) % 2),
			QueueLimit:  int(limitB) % 8, // 0 = unbounded
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(count)
		subs := make([]modelSub, n)
		for i := range subs {
			deadline := math.MaxFloat64
			if rng.Intn(4) > 0 {
				deadline = float64(rng.Intn(8)) * 5 // coarse: EDF ties abound
			}
			subs[i] = modelSub{
				at:       float64(rng.Intn(80)) / 2, // coarse: time ties abound
				deadline: deadline,
				tag:      uint64(i),
			}
		}
		// Serve takes submissions in time order, ties in slice order.
		sort.SliceStable(subs, func(i, j int) bool { return subs[i].at < subs[j].at })

		var got []modelCompletion
		cfg.OnComplete = func(req Request, submitted, completed float64) {
			got = append(got, modelCompletion{req.Tag, submitted, completed})
		}
		in := make([]Submission, n)
		for i, s := range subs {
			in[i] = Submission{At: s.at, Request: Request{Page: 0, Deadline: s.deadline, Tag: s.tag}}
		}
		m, err := Serve(in, cfg)
		if err != nil {
			t.Fatal(err)
		}

		want := modelRun(subs, cfg)
		if m.Submitted != n || m.Completed != len(want.log) || m.Rejected != want.rejected {
			t.Fatalf("counters: %+v, want completed %d rejected %d of %d",
				m, len(want.log), want.rejected, n)
		}
		if m.Submitted != m.Completed+m.Rejected {
			t.Fatalf("conservation: %+v", m)
		}
		if len(got) != len(want.log) {
			t.Fatalf("completion log length %d, want %d", len(got), len(want.log))
		}
		for i := range got {
			if got[i] != want.log[i] {
				t.Fatalf("completion %d: %+v, want %+v (discipline %d)", i, got[i], want.log[i], cfg.Discipline)
			}
		}
		if m.DeadlineMisses != want.misses {
			t.Fatalf("misses %d, want %d", m.DeadlineMisses, want.misses)
		}
		if m.MaxQueueLen != want.maxQ {
			t.Fatalf("max queue %d, want %d", m.MaxQueueLen, want.maxQ)
		}
		if m.AvgResponse != stats.Mean(want.responses) {
			t.Fatalf("avg response %g, want %g", m.AvgResponse, stats.Mean(want.responses))
		}
		if m.AvgQueueLen < 0 || m.AvgQueueLen > float64(m.MaxQueueLen) {
			t.Fatalf("time-weighted queue length %g outside [0, %d]", m.AvgQueueLen, m.MaxQueueLen)
		}
	})
}
