// Package ledger implements the build-path decision ledger: an opt-in,
// bounded-memory record of every discrete decision a CTCR build makes —
// which pairs conflicted and by what margin, which sets the MIS solver kept
// or trimmed and why, where each category was placed and which candidates
// lost, and which shortcuts the delta engine took (repairs, reseeds,
// fingerprint-cache hits).
//
// The design follows the flight recorder's playbook (internal/obs/flight):
// records are small packed structs with enum-coded kinds, appended into
// pooled fixed-size slabs behind one mutex, capped by MaxRecords so a
// pathological build cannot balloon memory (overflow increments a drop
// counter and marks the sealed ledger truncated). Capture is opt-in via a
// *Recorder threaded through context; every method is nil-safe, so hot
// paths pay a single pointer test when the ledger is off.
//
// A sealed Ledger is immutable and self-contained enough to *replay*: the
// ranking, must-together edges, and MIS keep decisions it stores are exactly
// the inputs ctcr.Assemble consumes, so re-running the deterministic
// construction over them reproduces the recorded build's tree bit for bit
// (see the replay package; the differential harness pins this).
package ledger

import (
	"context"
	"sync"
)

// Kind enumerates the decision types a build records.
type Kind uint8

const (
	// KindNone is the zero Kind; no valid record carries it.
	KindNone Kind = iota
	// KindConflict2: sets A and B are a 2-conflict. C is the witnessing
	// item overlap |I|; X and Y are the together/separately margins (how
	// far each coverability test missed, in the test's native item units).
	KindConflict2
	// KindMustTogether: sets A and B must share a branch. C is |I|; X is
	// the together test's slack, Y the separately margin it failed by.
	KindMustTogether
	// KindConflict3: the sorted triple (A, B, C) is a 3-conflict.
	KindConflict3
	// KindKeep: set A entered the independent set. B is the component
	// index (-1 when kernelization fixed it globally), X the set weight,
	// Y the component incumbent weight at the decision. Via tells which
	// solver path decided.
	KindKeep
	// KindTrim: set A was excluded. B is the deciding neighbor (a kept
	// set adjacent to A, or the dominating neighbor under kernelization;
	// -1 when none applies), C the component index, X the set weight, Y
	// the component incumbent weight at the decision point.
	KindTrim
	// KindPlace: set A's category was parented under set B's (-1 = root).
	// C is the number of must-together candidates the parent scan
	// considered; X is A's rank index. Via distinguishes a root fallback
	// from a must-partner match.
	KindPlace
	// KindAdmissionDrop: the Perfect-Recall admission guard dropped set A
	// instead of nesting it under candidate parent B. X is the broken
	// ancestor weight, Y is A's own weight (drop happens when X ≥ Y).
	KindAdmissionDrop
	// KindCover: Algorithm 2 covered set A by placing B duplicate items;
	// X is the gain factor (weight ÷ cover gap) at the pop.
	KindCover
	// KindLeftovers: the marginal-gain sweep placed A leftover duplicates
	// over B heap iterations (one summary record per assignment run).
	KindLeftovers
	// KindDeltaRepair: the delta engine surgically repaired conflict
	// state around stable set A, rescanning C candidate pairs.
	KindDeltaRepair
	// KindDeltaReseed: a batch exceeded the damage budget; A is the
	// changed-set count, X the damage fraction that tripped the fallback.
	KindDeltaReseed
	// KindCacheHit: component A (B members) reused a fingerprint-cached
	// MIS solution from the previous rebuild.
	KindCacheHit
	// KindCacheMiss: component A (B members) was solved fresh.
	KindCacheMiss

	kindCount
)

var kindNames = [kindCount]string{
	KindNone:          "none",
	KindConflict2:     "conflict2",
	KindMustTogether:  "must-together",
	KindConflict3:     "conflict3",
	KindKeep:          "keep",
	KindTrim:          "trim",
	KindPlace:         "place",
	KindAdmissionDrop: "admission-drop",
	KindCover:         "cover",
	KindLeftovers:     "leftovers",
	KindDeltaRepair:   "delta-repair",
	KindDeltaReseed:   "delta-reseed",
	KindCacheHit:      "cache-hit",
	KindCacheMiss:     "cache-miss",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind inverts String. Unknown names map to KindNone.
func ParseKind(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return Kind(k)
		}
	}
	return KindNone
}

// Via enumerates the mechanism behind a decision.
type Via uint8

const (
	// ViaNone is the zero Via.
	ViaNone Via = iota
	// ViaKernel: kernelization (neighborhood removal or domination).
	ViaKernel
	// ViaExact: the branch-and-bound solver, solved to optimality.
	ViaExact
	// ViaHeuristic: greedy + local search (budget exhausted or forced).
	ViaHeuristic
	// ViaCache: the delta engine's fingerprint cache replayed a prior
	// component solution.
	ViaCache
	// ViaRoot: the parent scan found no admitted must partner; the
	// category hangs off the root.
	ViaRoot
	// ViaMustPartner: the category was nested under its nearest admitted
	// must-together partner above it in rank.
	ViaMustPartner

	viaCount
)

var viaNames = [viaCount]string{
	ViaNone:        "",
	ViaKernel:      "kernel",
	ViaExact:       "exact",
	ViaHeuristic:   "heuristic",
	ViaCache:       "cache",
	ViaRoot:        "root",
	ViaMustPartner: "must-partner",
}

// String returns the stable wire name of the via ("" for ViaNone).
func (v Via) String() string {
	if int(v) < len(viaNames) {
		return viaNames[v]
	}
	return "unknown"
}

// ParseVia inverts String.
func ParseVia(s string) Via {
	for v, name := range viaNames {
		if name == s && s != "" {
			return Via(v)
		}
	}
	return ViaNone
}

// Record is one packed decision. Field meaning depends on Kind (see the
// Kind constants); unused fields are zero. The struct is 32 bytes, so a
// slab of 4096 records costs 128 KiB and the default cap bounds a ledger
// at 32 MiB of records.
type Record struct {
	Kind    Kind
	Via     Via
	A, B, C int32
	X, Y    float64
}

const (
	// DefaultMaxRecords bounds a recorder that was given no explicit cap.
	DefaultMaxRecords = 1 << 20
	slabSize          = 4096
)

// slabPool recycles record slabs across recorders, so repeated
// ledger-enabled builds (the delta path seals one ledger per batch) do not
// re-grow the heap each time.
var slabPool = sync.Pool{
	New: func() interface{} {
		s := make([]Record, 0, slabSize)
		return &s
	},
}

// Recorder accumulates decisions for one build. Safe for concurrent use;
// the nil *Recorder is a valid, silent recorder, so call sites need no
// enabled-checks beyond what they want for skipping witness computation.
type Recorder struct {
	mu      sync.Mutex
	max     int
	n       int
	dropped int64
	slabs   []*[]Record
	ranking []int32
	meta    Meta
}

// NewRecorder returns a recorder bounded to max records (0 or negative
// picks DefaultMaxRecords).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxRecords
	}
	return &Recorder{max: max}
}

// Enabled reports whether the recorder captures anything. Hot paths hoist
// this to skip witness bookkeeping entirely when the ledger is off.
func (r *Recorder) Enabled() bool { return r != nil }

// Add appends one record, dropping it (and counting the drop) past the cap.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.n >= r.max {
		r.dropped++
		r.mu.Unlock()
		return
	}
	if len(r.slabs) == 0 || len(*r.slabs[len(r.slabs)-1]) == slabSize {
		r.slabs = append(r.slabs, slabPool.Get().(*[]Record))
	}
	s := r.slabs[len(r.slabs)-1]
	*s = append(*s, rec)
	r.n++
	r.mu.Unlock()
}

// AddBatch appends a run of records under a single lock, splitting them
// across slabs. High-volume capture sites (the conflict analyzer's parallel
// pair sweep buffers witnesses per worker) use it to amortize the mutex to
// one acquisition per few thousand records instead of one per record.
func (r *Recorder) AddBatch(recs []Record) {
	if r == nil || len(recs) == 0 {
		return
	}
	r.mu.Lock()
	for len(recs) > 0 {
		if r.n >= r.max {
			r.dropped += int64(len(recs))
			break
		}
		if len(r.slabs) == 0 || len(*r.slabs[len(r.slabs)-1]) == slabSize {
			r.slabs = append(r.slabs, slabPool.Get().(*[]Record))
		}
		s := r.slabs[len(r.slabs)-1]
		room := slabSize - len(*s)
		if room > len(recs) {
			room = len(recs)
		}
		if r.n+room > r.max {
			room = r.max - r.n
		}
		*s = append(*s, recs[:room]...)
		r.n += room
		recs = recs[room:]
	}
	r.mu.Unlock()
}

// SetRanking snapshots the build's rank order (rank index → set ID); replay
// needs it to reconstruct the thin conflict view.
func (r *Recorder) SetRanking(ranking []int32) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ranking = append(r.ranking[:0], ranking...)
	r.mu.Unlock()
}

// SetMeta stores the build metadata stamped into the sealed ledger.
func (r *Recorder) SetMeta(m Meta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	trunc, dropped := r.meta.Truncated, r.meta.Dropped
	r.meta = m
	r.meta.Truncated = trunc
	r.meta.Dropped = dropped
	r.mu.Unlock()
}

// Seal flattens the recorder into an immutable Ledger and returns its slabs
// to the pool. The recorder must not be used after Seal.
func (r *Recorder) Seal() *Ledger {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &Ledger{
		Meta:    r.meta,
		Ranking: r.ranking,
		Records: make([]Record, 0, r.n),
	}
	for _, s := range r.slabs {
		l.Records = append(l.Records, *s...)
		*s = (*s)[:0]
		slabPool.Put(s)
	}
	r.slabs = nil
	r.ranking = nil
	l.Meta.Dropped = r.dropped
	l.Meta.Truncated = r.dropped > 0
	return l
}

// Meta describes the build a ledger belongs to.
type Meta struct {
	// Variant and Delta are the similarity configuration of the build.
	Variant string  `json:"variant,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Sets and Universe size the instance the decisions refer to.
	Sets     int `json:"sets,omitempty"`
	Universe int `json:"universe,omitempty"`
	// Source is "full" for a from-scratch build, "delta" for an
	// incremental rebuild.
	Source string `json:"source,omitempty"`
	// Truncated reports the record cap was hit; a truncated ledger cannot
	// be replayed. Dropped counts the records lost.
	Truncated bool  `json:"truncated,omitempty"`
	Dropped   int64 `json:"dropped,omitempty"`
}

// Ledger is a sealed, immutable decision trace.
type Ledger struct {
	Meta    Meta    `json:"meta"`
	Ranking []int32 `json:"ranking,omitempty"`
	// StableOf translates the build-stage set IDs the records use (compact
	// instance indices) to engine-stable catalog IDs; nil on full builds,
	// where the two spaces coincide.
	StableOf []int32  `json:"stableOf,omitempty"`
	Records  []Record `json:"records"`
}

// Len returns the record count.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	return len(l.Records)
}

// Stable translates a build-stage set ID back to the catalog's stable ID
// space (identity on full builds).
func (l *Ledger) Stable(compact int32) int32 {
	if l == nil || compact < 0 {
		return compact
	}
	if l.StableOf == nil || int(compact) >= len(l.StableOf) {
		return compact
	}
	return l.StableOf[compact]
}

// ToCatalog returns r with its build-stage set IDs translated into catalog
// (engine-stable) IDs, so records from a full build and a delta build of the
// same catalog describe the same sets with the same numbers. Identity for
// full builds (no translation table) and for delta-stage records, which
// already speak stable IDs.
func (l *Ledger) ToCatalog(r Record) Record {
	if l == nil || l.StableOf == nil {
		return r
	}
	switch r.Kind {
	case KindConflict2, KindMustTogether, KindTrim, KindPlace, KindAdmissionDrop:
		r.A, r.B = l.Stable(r.A), l.Stable(r.B)
	case KindConflict3:
		r.A, r.B, r.C = l.Stable(r.A), l.Stable(r.B), l.Stable(r.C)
	case KindKeep, KindCover:
		r.A = l.Stable(r.A)
	}
	return r
}

// recorderKey is the context key for the build recorder.
type recorderKey struct{}

// WithRecorder attaches a recorder to the context; the build pipeline picks
// it up stage by stage. A nil recorder detaches (used to suppress capture
// in nested solves whose ID spaces would not match the ledger's).
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// FromContext returns the context's recorder, or nil (a valid silent
// recorder) when none is attached.
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	return r
}
