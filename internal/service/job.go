package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// JobQueued: admitted, waiting for execution (behind the worker pool).
	JobQueued JobState = "queued"
	// JobRunning: executing.
	JobRunning JobState = "running"
	// JobDone: completed successfully.
	JobDone JobState = "done"
	// JobFailed: completed with an error (Failures carries the details).
	JobFailed JobState = "failed"
	// JobCanceled: the client went away (or the deadline passed) before
	// the job finished.
	JobCanceled JobState = "canceled"
)

// Failure is one task failure inside a job, extracted from the runner's
// MultiError/TaskError structure so API clients see which cells of a
// sweep failed, after how many attempts, without parsing error strings.
type Failure struct {
	Index    int    `json:"index"`
	Label    string `json:"label,omitempty"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// Job is the service's unit of work: one classify, MRC or sweep request. The
// struct is the JSON shape served by GET /v1/jobs/{id}; all fields are
// snapshots guarded by the registry's lock.
type Job struct {
	ID     string   `json:"id"`
	Kind   string   `json:"kind"` // "classify" | "sweep" | "mrc"
	Client string   `json:"client"`
	State  JobState `json:"state"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	// Error and Failures describe how a failed job failed; Attempts is
	// the supervision layer's attempt count for the primary failure.
	Error    string    `json:"error,omitempty"`
	Failures []Failure `json:"failures,omitempty"`
	Attempts int       `json:"attempts,omitempty"`

	// CacheHits/CacheMisses count memoization-cache traffic attributable
	// to this job (approximate under concurrency: the counters are
	// process-wide deltas sampled around the job's execution).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	// Records counts trace records the job processed; Emitted counts
	// NDJSON result lines streamed back.
	Records uint64 `json:"records"`
	Emitted uint64 `json:"emitted"`

	// IdemKey is the client's idempotency key, when one was sent — the
	// handle the journal dedupes retries against.
	IdemKey string `json:"idem_key,omitempty"`
	// Recovered marks a job restored (and possibly re-driven) from the
	// journal after a restart rather than created by a live request.
	Recovered bool `json:"recovered,omitempty"`
}

// failuresOf flattens a runner error into the API's failure list using
// the multi-Unwrap structure (errors.As), never string parsing.
func failuresOf(err error) ([]Failure, int) {
	var me *runner.MultiError
	if errors.As(err, &me) {
		out := make([]Failure, 0, len(me.Failures))
		attempts := 0
		for _, f := range me.Failures {
			out = append(out, Failure{Index: f.Index, Label: f.Label, Attempts: f.Attempts, Error: f.Err.Error()})
			if f.Attempts > attempts {
				attempts = f.Attempts
			}
		}
		return out, attempts
	}
	var te *runner.TaskError
	if errors.As(err, &te) {
		return []Failure{{Index: te.Index, Label: te.Label, Attempts: te.Attempts, Error: te.Err.Error()}}, te.Attempts
	}
	return nil, 0
}

// jobs is the bounded in-memory job registry: a map for lookup plus a
// FIFO ring of IDs so the oldest finished jobs are evicted once maxJobs
// is exceeded — observability never becomes a leak.
type jobs struct {
	mu      sync.Mutex
	byID    map[string]*Job
	order   []string
	maxJobs int

	prefix string
	seq    atomic.Uint64
}

func newJobs(maxJobs int) *jobs {
	if maxJobs < 1 {
		maxJobs = 1
	}
	var b [4]byte
	_, _ = rand.Read(b[:])
	return &jobs{
		byID:    map[string]*Job{},
		maxJobs: maxJobs,
		prefix:  hex.EncodeToString(b[:]),
	}
}

// NewID allocates a job ID without registering anything — the handlers
// need the ID before admission so admission-wait spans carry the job's
// trace, but only admitted requests become registered jobs.
func (js *jobs) NewID() string {
	return fmt.Sprintf("%s-%06d", js.prefix, js.seq.Add(1))
}

// CreateWithID registers a new queued job under a pre-allocated ID.
func (js *jobs) CreateWithID(id, kind, client string) {
	j := &Job{ID: id, Kind: kind, Client: client, State: JobQueued, Created: time.Now()}
	js.mu.Lock()
	defer js.mu.Unlock()
	js.byID[id] = j
	js.order = append(js.order, id)
	for len(js.order) > js.maxJobs {
		delete(js.byID, js.order[0])
		js.order = js.order[1:]
	}
}

// Restore registers a job rebuilt from the journal, preserving its
// journaled state (recovery's path into the registry; live requests go
// through CreateWithID).
func (js *jobs) Restore(j Job) {
	cp := j
	js.mu.Lock()
	defer js.mu.Unlock()
	if _, exists := js.byID[j.ID]; !exists {
		js.order = append(js.order, j.ID)
	}
	js.byID[j.ID] = &cp
	for len(js.order) > js.maxJobs {
		delete(js.byID, js.order[0])
		js.order = js.order[1:]
	}
}

// Get returns a snapshot of the job, or false if unknown (or evicted).
func (js *jobs) Get(id string) (Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.byID[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// update mutates a live job under the lock; a no-op for evicted jobs.
func (js *jobs) update(id string, f func(*Job)) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.byID[id]; ok {
		f(j)
	}
}

// Start marks the job running.
func (js *jobs) Start(id string) {
	now := time.Now()
	js.update(id, func(j *Job) {
		j.State = JobRunning
		j.Started = &now
	})
}

// Finish records the job's outcome from its final error: nil is done,
// cancellation is canceled, anything else is failed with the runner's
// failure structure flattened into the API shape.
func (js *jobs) Finish(id string, err error, records, emitted, hits, misses uint64) {
	now := time.Now()
	js.update(id, func(j *Job) {
		j.Finished = &now
		j.Records = records
		j.Emitted = emitted
		j.CacheHits = hits
		j.CacheMisses = misses
		switch {
		case err == nil:
			j.State = JobDone
		case errors.Is(err, context.Canceled):
			j.State = JobCanceled
			j.Error = err.Error()
		default:
			j.State = JobFailed
			j.Error = err.Error()
			j.Failures, j.Attempts = failuresOf(err)
		}
	})
}
