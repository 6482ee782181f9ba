package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// jobRecord is one journal entry. Three ops describe a job's life:
//
//	create  — the job exists: id, kind, client, idempotency key
//	start   — the job began executing, carrying the spec verbatim so a
//	          rebooted mctd can re-drive it without the original request
//	finish  — the terminal state (done/failed/canceled) and error text
//
// Replay folds records by ID, so applying a record twice (compaction's
// crash window) is harmless — the journal package's idempotency
// contract.
type jobRecord struct {
	Op     string          `json:"op"` // "create" | "start" | "finish"
	ID     string          `json:"id"`
	Kind   string          `json:"kind,omitempty"`
	Client string          `json:"client,omitempty"`
	Idem   string          `json:"idem,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	State  JobState        `json:"state,omitempty"`
	Error  string          `json:"error,omitempty"`
	T      time.Time       `json:"t"`
}

// jobLog write-throughs the job registry's lifecycle events into the
// WAL. A nil jobLog (journaling disabled) turns every method into a
// no-op, so callers never branch. Journal write failures are counted
// and logged but never fail the request — durability degradation is an
// operational alert, not an availability loss.
type jobLog struct {
	j      *journal.Journal
	logf   func(format string, args ...any)
	errs   *counter
	writes *counter
}

func (l *jobLog) append(rec jobRecord, sync bool) {
	if l == nil || l.j == nil {
		return
	}
	rec.T = time.Now().UTC()
	enc, err := json.Marshal(rec)
	if err == nil {
		err = l.j.Append(enc)
		if err == nil && sync {
			err = l.j.Sync()
		}
	}
	if err != nil {
		l.errs.Add(1)
		if l.logf != nil {
			l.logf("service: journal write failed (op=%s job=%s): %v", rec.Op, rec.ID, err)
		}
		return
	}
	l.writes.Add(1)
}

func (l *jobLog) create(id, kind, client, idem string) {
	l.append(jobRecord{Op: "create", ID: id, Kind: kind, Client: client, Idem: idem}, false)
}

// start records execution with the spec attached. A nil spec (the
// upload path, whose body is not retained) journals without one; such
// jobs cannot be re-driven after a crash and recovery marks them failed.
func (l *jobLog) start(id string, spec any) {
	rec := jobRecord{Op: "start", ID: id}
	if spec != nil {
		if enc, err := json.Marshal(spec); err == nil {
			rec.Spec = enc
		}
	}
	l.append(rec, false)
}

// finish is a batch boundary: under PolicyData the record is fsynced, so
// a completed job's outcome survives power loss.
func (l *jobLog) finish(id string, state JobState, errText string) {
	l.append(jobRecord{Op: "finish", ID: id, State: state, Error: errText}, true)
}

// recoveredJob is the folded view of one job's records at boot.
type recoveredJob struct {
	rec      jobRecord // create fields
	spec     json.RawMessage
	started  bool
	finished bool
	state    JobState
	errText  string
	finT     time.Time
	order    int // first-seen order, to replay registry FIFO faithfully
}

// RecoveryStats summarizes a boot-time Recover.
type RecoveryStats struct {
	Replay journal.ReplayStats
	// Jobs seen in the journal; Finished were already terminal;
	// Redriven were unfinished with a spec and are re-executing;
	// Orphaned were unfinished without a re-drivable spec (upload
	// classifies) and are now marked failed.
	Jobs, Finished, Redriven, Orphaned int
}

// Recover replays the job journal into the registry and re-drives every
// unfinished job: spec jobs re-run through their endpoint's row (a
// sweep's finished cells replay from the memo cache through lookupCell
// and runner.Memo, so only interrupted cells recompute; a classify or
// MRC spec resolves as one supervised cell), and uploads — whose request
// bodies were never retained — are marked failed. Re-driven work runs in
// background goroutines that Drain waits for. After replay the journal
// is compacted to the still-live records.
//
// Call once, after New and before serving traffic.
func (s *Service) Recover(ctx context.Context) (RecoveryStats, error) {
	var st RecoveryStats
	if s.jlogOpenErr != nil {
		// New deferred the open failure to here: a boot that asked for
		// durability but cannot have it should fail loudly, not run with a
		// silently disabled journal.
		return st, fmt.Errorf("service: opening job journal: %w", s.jlogOpenErr)
	}
	if s.jlog == nil || s.jlog.j == nil {
		return st, nil
	}
	byID := map[string]*recoveredJob{}
	var order []string
	replay, err := s.jlog.j.Replay(func(p []byte) error {
		var rec jobRecord
		if uerr := json.Unmarshal(p, &rec); uerr != nil || rec.ID == "" {
			return nil // unparseable record: skip, CRC said bytes are intact but schema moved on
		}
		rj, ok := byID[rec.ID]
		if !ok {
			rj = &recoveredJob{order: len(order)}
			byID[rec.ID] = rj
			order = append(order, rec.ID)
		}
		switch rec.Op {
		case "create":
			rj.rec = rec
		case "start":
			rj.started = true
			if len(rec.Spec) > 0 {
				rj.spec = rec.Spec
			}
		case "finish":
			rj.finished = true
			rj.state = rec.State
			rj.errText = rec.Error
			rj.finT = rec.T
		}
		return nil
	})
	st.Replay = replay
	if err != nil {
		return st, fmt.Errorf("service: journal replay: %w", err)
	}

	var live [][]byte
	type redriveItem struct {
		id, kind string
		spec     json.RawMessage
	}
	var redrives []redriveItem
	for _, id := range order {
		rj := byID[id]
		st.Jobs++
		job := Job{
			ID:        id,
			Kind:      rj.rec.Kind,
			Client:    rj.rec.Client,
			IdemKey:   rj.rec.Idem,
			State:     JobQueued,
			Created:   rj.rec.T,
			Recovered: true,
		}
		switch {
		case rj.finished:
			st.Finished++
			job.State = rj.state
			job.Error = rj.errText
			t := rj.finT
			job.Finished = &t
			s.jobs.Restore(job)
		case rj.spec != nil:
			st.Redriven++
			s.jobs.Restore(job)
			redrives = append(redrives, redriveItem{id: id, kind: rj.rec.Kind, spec: rj.spec})
			live = append(live, mustRecord(jobRecord{Op: "create", ID: id, Kind: rj.rec.Kind,
				Client: rj.rec.Client, Idem: rj.rec.Idem, T: rj.rec.T}))
			live = append(live, mustRecord(jobRecord{Op: "start", ID: id, Spec: rj.spec, T: rj.rec.T}))
		default:
			// Created (or started on the upload path) but no spec to re-run:
			// the honest outcome is failure — the client's retry, carrying
			// the same trace bytes, computes fresh.
			st.Orphaned++
			job.State = JobFailed
			job.Error = "interrupted by service restart; request body not retained"
			now := time.Now()
			job.Finished = &now
			s.jobs.Restore(job)
			s.recovered.Add(1)
			s.jlog.finish(id, JobFailed, job.Error)
		}
	}
	// Compact history down to the jobs still in flight; finished jobs'
	// outcomes live in the registry (and their results in the memo
	// cache), so their records have served their purpose. Redrives
	// launch only after compaction: a redrive that finished first would
	// append its finish record to a pre-compaction segment that Compact
	// then deletes, leaving the job looking unfinished at the next boot
	// and re-driving it a second time.
	if err := s.jlog.j.Compact(live); err != nil {
		return st, fmt.Errorf("service: compacting journal after recovery: %w", err)
	}
	for _, rd := range redrives {
		s.redrive(ctx, rd.id, rd.kind, rd.spec)
	}
	return st, nil
}

func mustRecord(rec jobRecord) []byte {
	enc, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("service: encoding journal record: %v", err))
	}
	return enc
}

// redrive re-executes one journaled job in the background. The result
// stream has no client attached — the value of the re-run is that its
// cells land in the memo cache, so the client's retried request (same
// idempotency key or same spec) replays them byte-identical through
// lookupCell and runner.Memo instead of recomputing.
func (s *Service) redrive(ctx context.Context, id, kind string, rawSpec json.RawMessage) {
	s.recoverWG.Add(1)
	go func() {
		defer s.recoverWG.Done()
		ctx, sp := obs.Start(obs.Inject(ctx, s.ring, id), "service.recover")
		sp.Str("kind", kind)
		defer sp.End()
		s.jobs.Start(id)
		err := s.redriveOne(ctx, kind, rawSpec)
		sp.Err(err)
		// Count the recovery before the job reads as finished, so anyone
		// who sees the finished job also sees it counted.
		s.recovered.Add(1)
		s.finishJob(id, err, 0, 0, 0, 0)
	}()
}

// redriveOne re-runs one journaled spec through its endpoint's row —
// the same decode, normalization and supervised execution a live
// request gets, minus the response.
func (s *Service) redriveOne(ctx context.Context, kind string, rawSpec json.RawMessage) error {
	ep := endpointByKind(kind)
	if ep == nil {
		return fmt.Errorf("service: journaled job has unknown kind %q", kind)
	}
	sp := ep.newSpec()
	if err := s.decodeSpec(bytes.NewReader(rawSpec), sp); err != nil {
		return err
	}
	_, err := ep.run(s, ctx, sp)
	return err
}

// AwaitRecovery blocks until background re-driven jobs finish or ctx
// expires — tests and Drain use it; serving traffic does not wait.
func (s *Service) AwaitRecovery(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.recoverWG.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
