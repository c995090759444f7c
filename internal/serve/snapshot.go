// Package serve implements the high-QPS read path over built category
// trees: immutable snapshots published through an atomic pointer swap
// (build-then-publish), an inverted-index categorize lookup, faceted
// navigation, and a bounded per-snapshot response cache.
//
// The contract is zero-lock reads: a request loads the current snapshot with
// one atomic pointer read and then touches only immutable state (plus
// lock-free cache and pool structures). Publishing never blocks readers —
// requests in flight when a new version lands simply finish on the snapshot
// they loaded, so no request ever observes a half-built tree.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"categorytree/internal/ledger"
	"categorytree/internal/obs"
	"categorytree/internal/tree"
)

// Snapshot is one immutable published view of a category tree: the tree,
// the read indexes derived from it, a monotonically increasing version, and
// the response cache for exactly this version. Because the cache lives and
// dies with its snapshot, a publish invalidates every cached response for
// free — the old cache becomes garbage along with the old tree.
//
//oct:immutable frozen at the atomic pointer store in Publish
type Snapshot struct {
	// Tree is the frozen category tree. It must not be mutated after
	// publication.
	Tree *tree.Tree
	// Index is the inverted item → category read index over Tree.
	Index *tree.ReadIndex
	// Version increases by one per publish on a publisher, starting at 1.
	Version uint64
	// PublishedAt records when the snapshot went live.
	PublishedAt time.Time
	// Provenance is the sealed decision ledger of the build that produced
	// Tree, or nil when the build ran without a recorder. Like the tree it
	// is frozen at publish; the /explain endpoints read it.
	Provenance *ledger.Ledger

	cache   *readCache
	explain *ledger.Index // derived from Provenance at publish; nil with it
}

// Explain returns the snapshot's provenance index (nil when the build ran
// without a ledger).
func (s *Snapshot) Explain() *ledger.Index { return s.explain }

// Publisher owns the current-snapshot pointer. Builds construct trees off
// to the side and call Publish; readers call Current on every request. The
// zero value is not usable; construct with NewPublisher.
type Publisher struct {
	cur     atomic.Pointer[Snapshot]
	version atomic.Uint64

	// mu serializes publishers only (version assignment + pointer store), so
	// concurrent publishes can never swap the pointer backwards. Readers
	// never touch it.
	mu sync.Mutex

	gauge     *obs.Gauge // snapshot/version — oct_snapshot_version
	ageGauge  *obs.Gauge // snapshot/categories
	cacheSize int
}

// NewPublisher creates a publisher recording its gauges in reg (nil uses a
// private registry, for tests). cacheSize bounds each snapshot's response
// cache; 0 picks the default (4096 entries), negative disables caching.
func NewPublisher(reg *obs.Registry, cacheSize int) *Publisher {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	return &Publisher{
		gauge:     reg.Gauge("snapshot/version"),
		ageGauge:  reg.Gauge("snapshot/categories"),
		cacheSize: cacheSize,
	}
}

// Publish derives the read indexes for t off to the side, then atomically
// swaps the snapshot pointer. In-flight readers keep the snapshot they
// already loaded; new readers observe the new version immediately. The tree
// must not be mutated after this call.
//
//oct:ctor the one sanctioned construction path for Snapshot
func (p *Publisher) Publish(t *tree.Tree) *Snapshot { return p.PublishProvenance(t, nil) }

// PublishProvenance is Publish with the build's sealed decision ledger
// attached, making the snapshot explainable: /explain answers come from
// exactly the build that produced the tree being served, never a newer or
// older one — the ledger rides the same atomic pointer swap.
func (p *Publisher) PublishProvenance(t *tree.Tree, l *ledger.Ledger) *Snapshot {
	// The expensive derivation runs before taking mu; the lock covers only
	// version assignment and the pointer store, and only publishers contend
	// on it — readers never touch it.
	ix := tree.BuildReadIndex(t)
	var ei *ledger.Index
	if l != nil {
		ei = ledger.NewIndex(l)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := &Snapshot{
		Tree:        t,
		Index:       ix,
		Version:     p.version.Add(1),
		PublishedAt: time.Now(),
		Provenance:  l,
		explain:     ei,
	}
	if p.cacheSize > 0 {
		snap.cache = newReadCache(p.cacheSize)
	}
	p.cur.Store(snap)
	p.gauge.Set(float64(snap.Version))
	p.ageGauge.Set(float64(t.Len()))
	return snap
}

// Current returns the live snapshot, or nil before the first publish. The
// load is a single atomic pointer read — the entire synchronization cost of
// a read request.
func (p *Publisher) Current() *Snapshot { return p.cur.Load() }
