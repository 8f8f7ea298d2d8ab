package stegdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Table is a hidden key-value table: rows live in a B-tree (ordered access,
// range scans) with an optional hash index for O(1) point lookups — the
// three structures the paper's future work names (tables, B-trees, hash
// indices), all stored in one deniable hidden file.
//
// Concurrency: Put/Delete serialize per key via nKeyShards shard locks, so
// the B-tree and hash index stay mutually consistent for any one key while
// distinct keys proceed in parallel (limited below by the tree writer
// lock). Get/Scan/Range never block behind writers: the hash path stripes
// by bucket, the tree path reads snapshots.
type Table struct {
	pg    *Pager
	tree  *BTree
	hash  *HashIndex
	hashy bool
	// Outermost lock of a plain table's hierarchy; one shard per operation.
	// lockcheck:level 10 stegdb/shard
	shards [nKeyShards]sync.Mutex
	// snapGate makes Snapshot an atomic cut against the row counter:
	// treePut/treeDelete hold it shared across one tree change and its
	// counter bump, Snapshot holds it exclusive while pinning the epoch,
	// so a snapshot never sees a row its Rows() does not count. The hash
	// index is outside the gate: snapshots read only the tree.
	// lockcheck:level 12 stegdb/tableGate
	snapGate sync.RWMutex
}

// nKeyShards is the Put/Delete key striping factor.
const nKeyShards = 64

// shardFor hashes the key (FNV-1a) onto a shard lock.
//
// lockcheck:returns stegdb/shard
func (t *Table) shardFor(key []byte) *sync.Mutex {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return &t.shards[h%nKeyShards]
}

// CreateTable creates a new hidden table in the named hidden file.
// withHash adds the hash index (nBuckets buckets).
func CreateTable(view View, name string, withHash bool, nBuckets int) (*Table, error) {
	pg, err := CreatePager(view, name)
	if err != nil {
		return nil, err
	}
	t := &Table{pg: pg, tree: NewBTree(pg), hashy: withHash}
	if withHash {
		if t.hash, err = NewHashIndex(pg, nBuckets); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// OpenTable opens an existing hidden table.
func OpenTable(view View, name string) (*Table, error) {
	pg, err := OpenPager(view, name)
	if err != nil {
		return nil, err
	}
	t := &Table{pg: pg, tree: NewBTree(pg)}
	if pg.metaField(metaHashRoot) != nilPage {
		t.hashy = true
		if t.hash, err = NewHashIndex(pg, 0); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Pager exposes the table's page store (for Sync/Close and stats).
func (t *Table) Pager() *Pager { return t.pg }

// Sync persists the table to the device, flushing any block cache the
// backing volume is mounted through.
func (t *Table) Sync() error { return t.pg.Sync() }

// Close is the table shutdown path: everything durable on the device.
func (t *Table) Close() error { return t.pg.Close() }

// Put inserts or replaces a row. The B-tree and hash index are kept
// error-consistent: if the hash insert fails after the tree insert
// succeeded, the tree change is rolled back before the error returns.
func (t *Table) Put(key, val []byte) error {
	sh := t.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	prev, existed, err := t.treePut(key, val)
	if err != nil {
		return err
	}
	if t.hashy {
		if err := t.hash.Put(key, val); err != nil {
			var rerr error
			if existed {
				_, _, rerr = t.treePut(key, prev)
			} else {
				_, _, rerr = t.treeDelete(key)
			}
			if rerr != nil {
				return errors.Join(err, fmt.Errorf("stegdb: rollback failed: %w", rerr))
			}
			return err
		}
	}
	return nil
}

// treePut stores key in the tree and counts a new row, as one step under
// the shared snapGate.
func (t *Table) treePut(key, val []byte) (prev []byte, existed bool, err error) {
	t.snapGate.RLock()
	defer t.snapGate.RUnlock()
	prev, existed, err = t.tree.PutEx(key, val)
	if err == nil && !existed {
		t.pg.bumpRows(1)
	}
	return prev, existed, err
}

// treeDelete removes key from the tree and uncounts the row, as one step
// under the shared snapGate.
func (t *Table) treeDelete(key []byte) (prev []byte, found bool, err error) {
	t.snapGate.RLock()
	defer t.snapGate.RUnlock()
	prev, found, err = t.tree.DeleteEx(key)
	if err == nil && found {
		t.pg.bumpRows(-1)
	}
	return prev, found, err
}

// Get returns the row stored under key. With a hash index it takes the O(1)
// path; otherwise the B-tree.
func (t *Table) Get(key []byte) ([]byte, bool, error) {
	if t.hashy {
		return t.hash.Get(key)
	}
	return t.tree.Get(key)
}

// GetOrdered always uses the B-tree (for verification and range queries).
func (t *Table) GetOrdered(key []byte) ([]byte, bool, error) { return t.tree.Get(key) }

// Delete removes a row, reporting whether it existed. Error-consistent like
// Put: if the hash delete fails after the tree delete succeeded, the row is
// restored and (false, err) returned — the delete did not happen. The hash
// index is probed even when the tree had no row, repairing any orphaned
// hash entry from an earlier partial failure.
func (t *Table) Delete(key []byte) (bool, error) {
	sh := t.shardFor(key)
	sh.Lock()
	defer sh.Unlock()
	prev, found, err := t.treeDelete(key)
	if err != nil {
		return false, err
	}
	if t.hashy {
		if _, err := t.hash.Delete(key); err != nil {
			if found {
				if _, _, rerr := t.treePut(key, prev); rerr != nil {
					return false, errors.Join(err, fmt.Errorf("stegdb: rollback failed: %w", rerr))
				}
			}
			return false, err
		}
	}
	return found, nil
}

// Scan visits rows in key order, reading from a snapshot: the scan sees the
// table exactly as of its start and never blocks concurrent writers.
func (t *Table) Scan(fn func(key, val []byte) bool) error { return t.tree.Scan(fn) }

// Range visits rows with lo <= key < hi in order (nil bounds are open),
// with the same snapshot semantics as Scan. The B-link leaf chain makes
// this a seek to lo plus a bounded walk, not a filtered full scan.
func (t *Table) Range(lo, hi []byte, fn func(key, val []byte) bool) error {
	s := t.Snapshot()
	defer s.Close()
	return s.Range(lo, hi, fn)
}

// Snapshot pins a point-in-time read view of the table's ordered rows,
// excluding writers for the instant of the pinning so the view's Rows()
// matches its rows.
func (t *Table) Snapshot() *TreeSnapshot {
	t.snapGate.Lock()
	defer t.snapGate.Unlock()
	return t.tree.Snapshot()
}

// Rows returns the row count from the persistent counter maintained by
// Put/Delete — O(1). Check() cross-validates it against a full scan.
func (t *Table) Rows() (int64, error) { return t.pg.Rows(), nil }

// Pages reports the pager footprint (pages in use).
func (t *Table) Pages() int64 { return t.pg.NumPages() }

// PutUint64 is a convenience for integer-keyed rows.
func (t *Table) PutUint64(key uint64, val []byte) error {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], key)
	return t.Put(k[:], val)
}

// GetUint64 fetches an integer-keyed row.
func (t *Table) GetUint64(key uint64) ([]byte, bool, error) {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], key)
	return t.Get(k[:])
}

// Check verifies internal consistency against one snapshot of the tree:
// every B-tree row resolves through the hash index (when present) with the
// same value, the hash entry count matches the tree row count, and the O(1)
// row counter agrees with the snapshot's scan count.
func (t *Table) Check() error {
	s := t.Snapshot()
	defer s.Close()
	var scanned int64
	var missed int
	err := s.Scan(func(k, v []byte) bool {
		scanned++
		if t.hashy {
			hv, ok, err := t.hash.Get(k)
			if err != nil || !ok || string(hv) != string(v) {
				missed++
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if missed > 0 {
		return fmt.Errorf("stegdb: %d rows missing or stale in hash index", missed)
	}
	if rows := s.Rows(); rows != scanned {
		return fmt.Errorf("stegdb: row counter %d != scanned rows %d", rows, scanned)
	}
	if t.hashy {
		hc, err := t.hash.Count()
		if err != nil {
			return err
		}
		if hc != scanned {
			return fmt.Errorf("stegdb: hash index holds %d entries, tree holds %d rows", hc, scanned)
		}
	}
	return nil
}
