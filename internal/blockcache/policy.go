package blockcache

import (
	"container/list"
	"fmt"
	"strings"
)

// Policy names accepted by NewPolicy and the -cache-policy flags.
const (
	PolicyLRU = "lru" // least recently used (the classic buffer-cache default)
	Policy2Q  = "2q"  // two-queue (Johnson & Shasha, VLDB 1994), simplified variant
)

// PolicyNames lists the available replacement policies in display order.
func PolicyNames() []string { return []string{PolicyLRU, Policy2Q} }

// Policy decides which resident block the cache evicts under capacity
// pressure. The Cache owns the data and the dirty state; the policy only
// tracks block numbers. Implementations are not safe for concurrent use —
// the Cache calls them with its mutex held.
//
// Lifecycle of a block through the hooks:
//
//	Insert(n)  n became resident (read miss fill or fresh write)
//	Touch(n)   a resident n was hit again (read or overwrite)
//	Victim()   peek the block the policy wants evicted next
//	Remove(n)  n left the resident set after a successful eviction
//	Reset()    drop all state, resident and ghost (cache Invalidate)
//
// Victim does not remove: the cache must first write the victim back if it
// is dirty, and only calls Remove once the device write succeeded. If the
// write-back fails the cache calls Touch(victim) instead, so the policy
// re-prioritizes it and the data stays resident.
type Policy interface {
	// Name returns the policy's registry name (e.g. "lru").
	Name() string
	// Touch records a hit on resident block n.
	Touch(n int64)
	// Insert records block n becoming resident.
	Insert(n int64)
	// Victim returns the preferred eviction candidate without removing it.
	// ok is false when nothing is resident.
	Victim() (n int64, ok bool)
	// Remove records resident block n being evicted. Scan-resistant
	// policies move n to a ghost list here.
	Remove(n int64)
	// Reset drops all policy state.
	Reset()
}

// NewPolicy builds the named replacement policy for a cache of the given
// capacity. An empty name selects LRU. Unknown names are an error listing
// the valid choices.
func NewPolicy(name string, capacity int) (Policy, error) {
	switch strings.ToLower(name) {
	case "", PolicyLRU:
		return newLRUPolicy(), nil
	case Policy2Q:
		return newTwoQPolicy(capacity), nil
	default:
		return nil, fmt.Errorf("blockcache: unknown policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// --- LRU ---------------------------------------------------------------------

// lruPolicy is the classic recency stack: hits and inserts move to the
// front, the victim is the back. It thrashes on cyclic scans longer than
// the capacity — exactly the regime 2Q exists for.
type lruPolicy struct {
	order *list.List // of int64; front = most recently used
	elems map[int64]*list.Element
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{order: list.New(), elems: make(map[int64]*list.Element)}
}

func (p *lruPolicy) Name() string { return PolicyLRU }

func (p *lruPolicy) Touch(n int64) {
	if e, ok := p.elems[n]; ok {
		p.order.MoveToFront(e)
	}
}

func (p *lruPolicy) Insert(n int64) {
	if e, ok := p.elems[n]; ok {
		p.order.MoveToFront(e)
		return
	}
	p.elems[n] = p.order.PushFront(n)
}

func (p *lruPolicy) Victim() (int64, bool) {
	back := p.order.Back()
	if back == nil {
		return 0, false
	}
	return back.Value.(int64), true
}

func (p *lruPolicy) Remove(n int64) {
	if e, ok := p.elems[n]; ok {
		p.order.Remove(e)
		delete(p.elems, n)
	}
}

func (p *lruPolicy) Reset() {
	p.order.Init()
	p.elems = make(map[int64]*list.Element)
}

var _ Policy = (*lruPolicy)(nil)
