// Package ondemand models the pull side of a hybrid broadcast system: the
// uplink request channel and the server that answers individual client
// requests. The paper's Section 1 motivates time-constrained broadcast
// scheduling with exactly this coupling — every client whose expected time
// the broadcast misses "actively sends a pull request through an uplink
// channel", and too many such switches congest the on-demand channel. This
// package makes that congestion measurable.
//
// The server is a multi-worker queueing station: Serve takes the
// requests in arrival order, queues them FCFS or earliest-deadline-first
// (optionally bounded), occupies a worker for a fixed service time per
// request, and leaves response-time and deadline-miss statistics behind.
package ondemand

import (
	"container/heap"
	"fmt"
	"math"

	"tcsa/internal/core"
	"tcsa/internal/stats"
)

// Discipline orders the pending-request queue.
type Discipline int

const (
	// FCFS serves requests in arrival order.
	FCFS Discipline = iota
	// EDF serves the request with the earliest deadline first.
	EDF
)

// Request is one pull request.
type Request struct {
	Page core.PageID
	// Deadline is the absolute simulation time by which the response is
	// useful; it orders the EDF queue and feeds deadline-miss accounting.
	// +Inf (or simply math.MaxFloat64) means "no deadline".
	Deadline float64
	// Tag is an opaque caller-defined correlation id, echoed to OnComplete.
	Tag uint64
}

// Config parameterises the server.
type Config struct {
	// ServiceTime is the slots one request occupies a worker; must be > 0.
	ServiceTime float64
	// Workers is the number of parallel servers; 0 defaults to 1.
	//lint:ignore testonly tests run several servers, a queueing regime the one-server default never reaches
	Workers int
	// Discipline selects the queue order; default FCFS.
	Discipline Discipline
	// QueueLimit bounds the waiting queue; 0 means unbounded. Submissions
	// beyond the bound are rejected (counted, not served).
	//lint:ignore testonly tests bound the queue to reach rejections, which the unbounded default never makes
	QueueLimit int
	// OnComplete, when non-nil, is invoked at each request's completion
	// instant with the request and its submit/complete times — the hook
	// that lets callers (e.g. the hybrid system) attribute per-request
	// response times.
	OnComplete func(req Request, submitted, completed float64)
}

// Metrics summarises a server's lifetime.
type Metrics struct {
	Submitted      int
	Completed      int
	Rejected       int
	DeadlineMisses int           // completions after their deadline
	AvgResponse    float64       // mean submit-to-completion time
	Response       stats.Summary // full response-time profile
	MaxQueueLen    int
	AvgQueueLen    float64 // time-weighted mean queue length
}

// Submission is a request reaching the server at instant At.
type Submission struct {
	Request
	At float64
}

// Serve runs submissions, ordered by At, through the server: each waits
// in the FCFS or EDF queue (when bounded, a full queue rejects it) until
// a worker frees, then occupies it for ServiceTime. At equal instants,
// submissions go before completions. Every service lasts ServiceTime, so
// services complete in the order they started, simultaneous ones too.
func Serve(subs []Submission, cfg Config) (Metrics, error) {
	if err := cfg.validate(); err != nil {
		return Metrics{}, err
	}
	for i, sub := range subs {
		if math.IsNaN(sub.At) || (i > 0 && sub.At < subs[i-1].At) {
			return Metrics{}, fmt.Errorf("ondemand: submission %d at %g out of time order", i, sub.At)
		}
	}
	var (
		q          = requestQueue{byDeadline: cfg.Discipline == EDF}
		busy       []job // in start order, which is completion order
		m          Metrics
		responses  []float64
		now        float64
		qArea      float64 // integral of queue length over time
		lastChange float64
	)
	// accountQueue integrates queue length up to now for AvgQueueLen.
	accountQueue := func() {
		qArea += float64(q.Len()) * (now - lastChange)
		lastChange = now
	}
	start := func(j job) {
		j.done = now + cfg.ServiceTime
		busy = append(busy, j)
	}
	for next := 0; next < len(subs) || len(busy) > 0; {
		if next < len(subs) && (len(busy) == 0 || subs[next].At <= busy[0].done) {
			now = subs[next].At
			j := job{req: subs[next].Request, at: now, seq: uint64(next)}
			next++
			m.Submitted++
			switch {
			case len(busy) < cfg.Workers:
				start(j)
			case cfg.QueueLimit > 0 && q.Len() >= cfg.QueueLimit:
				m.Rejected++
			default:
				accountQueue()
				heap.Push(&q, j)
				m.MaxQueueLen = max(m.MaxQueueLen, q.Len())
			}
			continue
		}
		j := busy[0]
		busy = busy[1:]
		now = j.done
		m.Completed++
		responses = append(responses, now-j.at)
		if now > j.req.Deadline {
			m.DeadlineMisses++
		}
		if cfg.OnComplete != nil {
			cfg.OnComplete(j.req, j.at, now)
		}
		if q.Len() > 0 {
			accountQueue()
			start(heap.Pop(&q).(job))
		}
	}
	m.AvgResponse = stats.Mean(responses)
	m.Response = stats.Summarize(responses)
	if now > 0 {
		m.AvgQueueLen = qArea / now
	}
	return m, nil
}

// validate reports the first malformed field and defaults Workers to 1.
func (cfg *Config) validate() error {
	if !(cfg.ServiceTime > 0) {
		return fmt.Errorf("ondemand: service time %f", cfg.ServiceTime)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("ondemand: %d workers", cfg.Workers)
	}
	if cfg.Discipline != FCFS && cfg.Discipline != EDF {
		return fmt.Errorf("ondemand: unknown discipline %d", cfg.Discipline)
	}
	if cfg.QueueLimit < 0 {
		return fmt.Errorf("ondemand: queue limit %d", cfg.QueueLimit)
	}
	return nil
}

// job is one request from its submission at at: in service until done,
// or waiting in the queue in submission order seq.
type job struct {
	req      Request
	at, done float64
	seq      uint64
}

// requestQueue is a heap ordered FCFS (seq) or EDF (deadline, then seq).
type requestQueue struct {
	items      []job
	byDeadline bool
}

func (q *requestQueue) Len() int { return len(q.items) }

func (q *requestQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.byDeadline && a.req.Deadline != b.req.Deadline {
		return a.req.Deadline < b.req.Deadline
	}
	return a.seq < b.seq
}

func (q *requestQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *requestQueue) Push(x any) { q.items = append(q.items, x.(job)) }

func (q *requestQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	q.items = old[:n-1]
	return it
}
