package runner

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Reporter receives per-task lifecycle events from the pool. Implementations
// must be safe for concurrent use; the pool calls them from worker
// goroutines.
type Reporter interface {
	// TaskDone fires when a task attempt finishes (successfully or not)
	// with its label, wall-clock duration, and error (nil on success).
	// With the Retry option every attempt reports, so a retried task is
	// visible as FAILED lines followed by a success line.
	TaskDone(label string, d time.Duration, err error)
}

// reporter holds the process-wide Reporter. Atomic so -progress can be
// toggled without racing the pool.
var reporter atomic.Pointer[Reporter]

// SetReporter installs r as the process-wide progress sink (nil disables
// reporting). cmd/paperbench installs a WriterReporter for -progress.
func SetReporter(r Reporter) {
	if r == nil {
		reporter.Store(nil)
		return
	}
	reporter.Store(&r)
}

// WriterReporter streams one line per finished task attempt to w. All
// state lives behind one mutex: writes are serialized (no interleaved
// partial lines) and the [n] sequence number is incremented under the
// same lock that prints it, so it is strictly increasing — the old
// version read the global done-counter outside any critical section and
// could stamp two concurrent lines with the same count.
type WriterReporter struct {
	mu   sync.Mutex
	w    io.Writer
	done uint64
}

// NewWriterReporter builds a WriterReporter over w.
func NewWriterReporter(w io.Writer) *WriterReporter { return &WriterReporter{w: w} }

// TaskDone implements Reporter.
func (r *WriterReporter) TaskDone(label string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
	if label == "" {
		label = "(task)"
	}
	if err != nil {
		fmt.Fprintf(r.w, "[%d] %s FAILED after %.2fs: %v\n", r.done, label, d.Seconds(), err)
		return
	}
	fmt.Fprintf(r.w, "[%d] %s %.2fs\n", r.done, label, d.Seconds())
}
