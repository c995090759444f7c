package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"categorytree/internal/obs"
)

// Job lifecycle states. A job is terminal in every state but jobRunning.
const (
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// job is one asynchronous build. The mutex guards the mutable fields; the
// obs registry and context are fixed at creation.
type job struct {
	id      string
	reg     *obs.Registry
	cancel  context.CancelFunc
	created time.Time

	mu       sync.Mutex
	state    string
	finished time.Time
	result   *buildResponse
	errMsg   string
	// latest holds the most recent progress event per stage, stages in first-
	// seen order, so late SSE subscribers replay the build's shape instead of
	// joining blind.
	latest map[string]obs.ProgressEvent
	stages []string
	subs   map[chan obs.ProgressEvent]struct{}
	// doneCh closes when the job reaches a terminal state.
	doneCh chan struct{}
}

// Report implements obs.Progress: it stores the event as the stage's latest
// and fans it out to subscribers without ever blocking the pipeline (a slow
// SSE client drops events, it does not stall the build).
func (j *job) Report(ev obs.ProgressEvent) {
	j.mu.Lock()
	if _, ok := j.latest[ev.Stage]; !ok {
		j.stages = append(j.stages, ev.Stage)
	}
	j.latest[ev.Stage] = ev
	subs := make([]chan obs.ProgressEvent, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a progress channel and returns it along with a replay
// of each stage's latest event (in first-seen order). The caller must
// unsubscribe when done.
func (j *job) subscribe() (ch chan obs.ProgressEvent, replay []obs.ProgressEvent) {
	// Generously buffered: the reporter drops rather than blocks, so the
	// buffer is the slack a flushing SSE writer gets before losing events.
	ch = make(chan obs.ProgressEvent, 256)
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = make([]obs.ProgressEvent, 0, len(j.stages))
	for _, st := range j.stages {
		replay = append(replay, j.latest[st])
	}
	j.subs[ch] = struct{}{}
	return ch, replay
}

func (j *job) unsubscribe(ch chan obs.ProgressEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(state string, res *buildResponse, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobRunning {
		return
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	close(j.doneCh)
}

// view is the job's status snapshot (the GET /builds/{id} shape). The full
// build result rides along once the job is done, so pollers need no second
// endpoint to fetch it.
type jobView struct {
	ID       string              `json:"id"`
	State    string              `json:"state"`
	Created  time.Time           `json:"created"`
	Finished *time.Time          `json:"finished,omitempty"`
	Error    string              `json:"error,omitempty"`
	Progress []obs.ProgressEvent `json:"progress"`
	Stages   obs.Snapshot        `json:"stages"`
	Result   *buildResponse      `json:"result,omitempty"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:       j.id,
		State:    j.state,
		Created:  j.created,
		Error:    j.errMsg,
		Progress: make([]obs.ProgressEvent, 0, len(j.stages)),
		Stages:   j.reg.Snapshot(),
	}
	for _, st := range j.stages {
		v.Progress = append(v.Progress, j.latest[st])
	}
	if j.state != jobRunning {
		f := j.finished
		v.Finished = &f
		v.Result = j.result
	}
	return v
}

// The async job registry's bounds: at most maxJobs jobs, and finished jobs
// stay fetchable for jobTTL.
const (
	maxJobs = 16
	jobTTL  = 10 * time.Minute
)

// jobRegistry is the bounded in-memory store of async builds. Terminal jobs
// linger for ttl so clients can fetch results, then evict; the capacity bound
// caps total memory, with running jobs never evicted (a full registry of
// running jobs refuses new work instead).
type jobRegistry struct {
	mu       sync.Mutex
	jobs     map[string]*job
	capacity int
	ttl      time.Duration
}

func newJobRegistry(capacity int, ttl time.Duration) *jobRegistry {
	return &jobRegistry{jobs: make(map[string]*job), capacity: capacity, ttl: ttl}
}

// evictLocked drops expired terminal jobs; when the registry is still full it
// sacrifices the oldest terminal jobs early rather than refusing new work.
func (r *jobRegistry) evictLocked(now time.Time) {
	for id, j := range r.jobs {
		j.mu.Lock()
		expired := j.state != jobRunning && now.Sub(j.finished) > r.ttl
		j.mu.Unlock()
		if expired {
			delete(r.jobs, id)
		}
	}
	for len(r.jobs) >= r.capacity {
		var oldest *job
		for _, j := range r.jobs {
			j.mu.Lock()
			terminal := j.state != jobRunning
			j.mu.Unlock()
			if terminal && (oldest == nil || j.created.Before(oldest.created)) {
				oldest = j
			}
		}
		if oldest == nil {
			return // every slot is a running job
		}
		delete(r.jobs, oldest.id)
	}
}

// create registers a fresh running job bound to cancel. It fails when the
// registry is saturated with running jobs.
func (r *jobRegistry) create(reg *obs.Registry, cancel context.CancelFunc) (*job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now())
	if len(r.jobs) >= r.capacity {
		return nil, fmt.Errorf("job registry full: %d jobs running", len(r.jobs))
	}
	j := &job{
		id:      randomHexID(),
		reg:     reg,
		cancel:  cancel,
		created: time.Now(),
		state:   jobRunning,
		latest:  make(map[string]obs.ProgressEvent),
		subs:    make(map[chan obs.ProgressEvent]struct{}),
		doneCh:  make(chan struct{}),
	}
	r.jobs[j.id] = j
	return j, nil
}

func (r *jobRegistry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now())
	return r.jobs[id]
}

// running counts non-terminal jobs (the /readyz capacity signal).
func (r *jobRegistry) running() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, j := range r.jobs {
		j.mu.Lock()
		if j.state == jobRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// randomHexID returns 8 random bytes hex-encoded (job and trace ids).
func randomHexID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a time-based
		// id rather than taking the server down.
		return fmt.Sprintf("job-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
