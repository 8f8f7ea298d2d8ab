package stegdb

import (
	"fmt"
	"sync"
)

// PartitionedTable shards one logical table by key hash across N hidden
// files, each a complete Table (own Pager, B-tree, optional hash index,
// journal). Partitioning multiplies the write paths the same way A6's
// distinct-object scaling multiplied file writes: Put/Delete on different
// partitions share no pager, no tree, no commit lock and no journal, so a
// write-heavy workload scales with the partition count instead of
// funneling into one file's allocator and commit pipeline.
//
// Composition rules:
//   - Put/Delete route by partFor(key) — a mixing hash deliberately
//     distinct from the per-table shard hash, so shard striping stays
//     uniform within each partition.
//   - Rows/Scan/Range/Check/Snapshot compose across partitions. A
//     cross-partition snapshot pins one epoch per partition atomically:
//     Snapshot briefly excludes writers via snapGate, so no operation is
//     half-landed while the per-partition epochs are pinned, and the
//     merged view is a true point in time.
//   - Sync is a cross-partition group commit: concurrent committers batch
//     into one pipeline run that journals every partition, issues ONE
//     shared pre-barrier, homes every partition, and issues ONE shared
//     post-barrier — two volume barriers per batch regardless of
//     partition count or caller count.
//
// Layout: partition i of table "t" lives in hidden file "t.p<i>" (plus its
// ".wal" journal sibling); each partition's meta page records the
// partition count and its own index, so fsck and Open can discover and
// validate the set from any one member.
type PartitionedTable struct {
	view  View
	base  string
	parts []*Table

	// snapGate makes cross-partition snapshots atomic: Put/Delete hold it
	// shared for the operation's duration, Snapshot holds it exclusive
	// while pinning every partition's epoch. Outermost lock of the stegdb
	// hierarchy.
	// lockcheck:level 5 stegdb/snapGate
	snapGate sync.RWMutex

	// gc batches concurrent Sync callers into shared cross-partition
	// commits.
	gc groupCommit
}

// maxPartitions bounds the partition count (also the fsck discovery bound).
const maxPartitions = 64

// partName names partition i of a partitioned table.
func partName(base string, i int) string { return fmt.Sprintf("%s.p%d", base, i) }

// CreatePartitionedTable creates a table sharded across nParts hidden
// files. withHash/nBuckets apply to every partition.
func CreatePartitionedTable(view View, name string, nParts int, withHash bool, nBuckets int) (*PartitionedTable, error) {
	if nParts < 1 || nParts > maxPartitions {
		return nil, fmt.Errorf("stegdb: partition count %d out of range [1,%d]", nParts, maxPartitions)
	}
	pt := &PartitionedTable{view: view, base: name, parts: make([]*Table, nParts)}
	for i := range pt.parts {
		t, err := CreateTable(view, partName(name, i), withHash, nBuckets)
		if err != nil {
			return nil, err
		}
		t.pg.setMetaField(metaPartCount, int64(nParts))
		t.pg.setMetaField(metaPartIndex, int64(i))
		if err := t.pg.flushMetaNow(); err != nil {
			return nil, err
		}
		pt.parts[i] = t
	}
	return pt, nil
}

// OpenPartitionedTable opens an existing partitioned table; every
// partition file (name.p0 .. name.p<N-1>) must already be visible in the
// view. The partition count is read from partition 0's meta page and each
// member's meta is validated against its position.
func OpenPartitionedTable(view View, name string) (*PartitionedTable, error) {
	t0, err := OpenTable(view, partName(name, 0))
	if err != nil {
		return nil, fmt.Errorf("stegdb: open partition 0: %w", err)
	}
	n := t0.pg.metaField(metaPartCount)
	if n < 1 || n > maxPartitions {
		return nil, fmt.Errorf("stegdb: partition 0 declares %d partitions (max %d)", n, maxPartitions)
	}
	pt := &PartitionedTable{view: view, base: name, parts: make([]*Table, n)}
	pt.parts[0] = t0
	for i := 1; i < int(n); i++ {
		t, err := OpenTable(view, partName(name, i))
		if err != nil {
			return nil, fmt.Errorf("stegdb: open partition %d: %w", i, err)
		}
		pt.parts[i] = t
	}
	for i, t := range pt.parts {
		if got := t.pg.metaField(metaPartCount); got != n {
			return nil, fmt.Errorf("stegdb: partition %d declares %d partitions, expected %d", i, got, n)
		}
		if got := t.pg.metaField(metaPartIndex); got != int64(i) {
			return nil, fmt.Errorf("stegdb: file %q declares partition index %d, expected %d", partName(name, i), got, i)
		}
	}
	return pt, nil
}

// Partitions returns the partition count.
func (pt *PartitionedTable) Partitions() int { return len(pt.parts) }

// Files returns the hidden-file names the table occupies, journal siblings
// included — the set fsck must find and verify.
func (pt *PartitionedTable) Files() []string {
	out := make([]string, 0, 2*len(pt.parts))
	for i := range pt.parts {
		out = append(out, partName(pt.base, i), partName(pt.base, i)+walSuffix)
	}
	return out
}

// partFor routes a key to its partition. The hash mixes harder than the
// per-table shard hash (plain FNV-1a) on purpose: the two must not
// correlate, or one partition's keys would pile onto a few shard locks.
func (pt *PartitionedTable) partFor(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(pt.parts)))
}

// Put inserts or replaces a row in the owning partition.
func (pt *PartitionedTable) Put(key, val []byte) error {
	pt.snapGate.RLock()
	defer pt.snapGate.RUnlock()
	return pt.parts[pt.partFor(key)].Put(key, val)
}

// Delete removes a row from the owning partition.
func (pt *PartitionedTable) Delete(key []byte) (bool, error) {
	pt.snapGate.RLock()
	defer pt.snapGate.RUnlock()
	return pt.parts[pt.partFor(key)].Delete(key)
}

// Get returns the row stored under key (hash-index path when present).
func (pt *PartitionedTable) Get(key []byte) ([]byte, bool, error) {
	return pt.parts[pt.partFor(key)].Get(key)
}

// GetOrdered always uses the owning partition's B-tree.
func (pt *PartitionedTable) GetOrdered(key []byte) ([]byte, bool, error) {
	return pt.parts[pt.partFor(key)].GetOrdered(key)
}

// Rows sums the per-partition row counters — O(partitions).
func (pt *PartitionedTable) Rows() (int64, error) {
	var total int64
	for _, t := range pt.parts {
		total += t.pg.Rows()
	}
	return total, nil
}

// Pages sums the per-partition pager footprints.
func (pt *PartitionedTable) Pages() int64 {
	var total int64
	for _, t := range pt.parts {
		total += t.pg.NumPages()
	}
	return total
}

// SetPageCacheSize sets every partition pager's page cache capacity.
func (pt *PartitionedTable) SetPageCacheSize(frames int) {
	for _, t := range pt.parts {
		t.pg.SetPageCacheSize(frames)
	}
}

// InvalidatePageCache commits and drops every partition pager's page cache
// (a maintenance/benchmark reset; see Pager.InvalidatePageCache).
func (pt *PartitionedTable) InvalidatePageCache() error {
	for _, t := range pt.parts {
		if err := t.pg.InvalidatePageCache(); err != nil {
			return err
		}
	}
	return nil
}

// PartitionedSnapshot is a point-in-time view across every partition: one
// pinned TreeSnapshot per partition, all taken with writers excluded, so
// the merged state is a single instant of the logical table.
type PartitionedSnapshot struct {
	pt    *PartitionedTable
	snaps []*TreeSnapshot
}

// Snapshot pins one epoch per partition atomically (writers excluded for
// the instant of the pinning, not for the life of the snapshot).
func (pt *PartitionedTable) Snapshot() *PartitionedSnapshot {
	pt.snapGate.Lock()
	snaps := make([]*TreeSnapshot, len(pt.parts))
	for i, t := range pt.parts {
		snaps[i] = t.Snapshot()
	}
	pt.snapGate.Unlock()
	return &PartitionedSnapshot{pt: pt, snaps: snaps}
}

// Close releases every partition's pinned snapshot.
func (s *PartitionedSnapshot) Close() {
	for _, ts := range s.snaps {
		ts.Close()
	}
}

// Rows sums the per-partition row counters as of the snapshot.
func (s *PartitionedSnapshot) Rows() int64 {
	var total int64
	for _, ts := range s.snaps {
		total += ts.Rows()
	}
	return total
}

// Get returns the value stored under key as of the snapshot.
func (s *PartitionedSnapshot) Get(key []byte) ([]byte, bool, error) {
	return s.snaps[s.pt.partFor(key)].Get(key)
}

// Scan visits every row of every partition in global key order.
func (s *PartitionedSnapshot) Scan(fn func(key, val []byte) bool) error {
	return s.Range(nil, nil, fn)
}

// Range visits rows with lo <= key < hi in global key order: a k-way merge
// of the per-partition leaf chains (linear min over <= maxPartitions
// iterators per step — partitions are few, keys are many).
func (s *PartitionedSnapshot) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	iters := make([]*treeIter, 0, len(s.snaps))
	for _, ts := range s.snaps {
		it, err := ts.iter(lo, hi)
		if err != nil {
			return err
		}
		if !it.done() {
			iters = append(iters, it)
		}
	}
	for len(iters) > 0 {
		min := 0
		for i := 1; i < len(iters); i++ {
			if string(iters[i].key()) < string(iters[min].key()) {
				min = i
			}
		}
		if !fn(iters[min].key(), iters[min].val()) {
			return nil
		}
		if err := iters[min].next(); err != nil {
			return err
		}
		if iters[min].done() {
			iters[min] = iters[len(iters)-1]
			iters = iters[:len(iters)-1]
		}
	}
	return nil
}

// Scan visits every row in global key order from a fresh snapshot.
func (pt *PartitionedTable) Scan(fn func(key, val []byte) bool) error {
	s := pt.Snapshot()
	defer s.Close()
	return s.Scan(fn)
}

// Range visits rows with lo <= key < hi in global key order from a fresh
// snapshot.
func (pt *PartitionedTable) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	s := pt.Snapshot()
	defer s.Close()
	return s.Range(lo, hi, fn)
}

// Check verifies every partition's internal consistency, that every key
// lives in the partition the routing hash assigns it, and that each
// member's meta agrees on the partition layout.
func (pt *PartitionedTable) Check() error {
	n := int64(len(pt.parts))
	for i, t := range pt.parts {
		if got := t.pg.metaField(metaPartCount); got != n {
			return fmt.Errorf("stegdb: partition %d declares %d partitions, expected %d", i, got, n)
		}
		if got := t.pg.metaField(metaPartIndex); got != int64(i) {
			return fmt.Errorf("stegdb: partition %d declares index %d", i, got)
		}
		if err := t.Check(); err != nil {
			return fmt.Errorf("stegdb: partition %d: %w", i, err)
		}
		var misrouted int
		if err := t.tree.Scan(func(k, _ []byte) bool {
			if pt.partFor(k) != i {
				misrouted++
			}
			return true
		}); err != nil {
			return err
		}
		if misrouted > 0 {
			return fmt.Errorf("stegdb: partition %d holds %d misrouted keys", i, misrouted)
		}
	}
	return nil
}

// Sync commits every partition as one batch. Concurrent callers are group
// committed: each batch journals all partitions, issues one shared
// journal barrier, homes all partitions, and issues one shared home
// barrier — the per-caller cost group commit exists to amortize.
func (pt *PartitionedTable) Sync() error {
	pagers := make([]*Pager, len(pt.parts))
	for i, t := range pt.parts {
		pagers[i] = t.pg
	}
	return pt.gc.do(func() error { return commitPagers(pt.view, pagers) })
}

// Close is the shutdown path: one final cross-partition commit.
func (pt *PartitionedTable) Close() error { return pt.Sync() }

// CheckAny opens and checks the named table, plain or partitioned,
// adopting each constituent hidden file into the view via adopt (e.g.
// (*stegfs.HiddenView).Adopt, which derives per-file keys from the view's
// deterministic key schedule). It returns the names of every hidden file
// the table occupies — journal siblings included when present — so callers
// like stegfsck can verify each one's block-level integrity too.
func CheckAny(view View, adopt func(name string) error, name string) ([]string, error) {
	if err := adopt(name); err == nil {
		files := []string{name}
		if adopt(name+walSuffix) == nil {
			files = append(files, name+walSuffix)
		}
		t, err := OpenTable(view, name)
		if err != nil {
			return files, err
		}
		return files, t.Check()
	}
	if err := adopt(partName(name, 0)); err != nil {
		return nil, fmt.Errorf("stegdb: table %q not found as plain file or partition 0: %w", name, err)
	}
	files := []string{partName(name, 0)}
	if adopt(partName(name, 0)+walSuffix) == nil {
		files = append(files, partName(name, 0)+walSuffix)
	}
	pg0, err := OpenPager(view, partName(name, 0))
	if err != nil {
		return files, err
	}
	n := pg0.metaField(metaPartCount)
	if n < 1 || n > maxPartitions {
		return files, fmt.Errorf("stegdb: partition 0 of %q declares %d partitions (max %d)", name, n, maxPartitions)
	}
	for i := 1; i < int(n); i++ {
		pn := partName(name, i)
		if err := adopt(pn); err != nil {
			return files, fmt.Errorf("stegdb: partition %d of %q missing: %w", i, name, err)
		}
		files = append(files, pn)
		if adopt(pn+walSuffix) == nil {
			files = append(files, pn+walSuffix)
		}
	}
	pt, err := OpenPartitionedTable(view, name)
	if err != nil {
		return files, err
	}
	return files, pt.Check()
}
