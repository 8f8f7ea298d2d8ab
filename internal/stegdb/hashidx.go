package stegdb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// HashIndex is a bucket-chain hash index over the pager: a directory page
// of bucket head pointers, each bucket a chain of pages holding entries.
// Lookups cost one directory read plus the chain walk — O(1) expected —
// which is the access pattern the paper's future work wants to preserve
// while keeping every page hidden.
//
// Concurrency: buckets are striped over nStripes RWMutexes keyed by
// bucketOf, so point ops on distinct buckets run fully in parallel; Get
// takes its stripe shared. The directory page holds every bucket head, and
// WritePage replaces whole pages — so head updates (chain prepend/unlink)
// re-read and rewrite the directory under dirMu to avoid losing a
// concurrent bucket's update. Lock order: stripe → dirMu → pager.
type HashIndex struct {
	pg       *Pager
	root     int64 // directory page; fixed at creation
	nBuckets int
	// Only one stripe is ever held at a time (Count walks them one by one),
	// so the class is single-hold despite being an array of locks.
	// lockcheck:level 25 stegdb/stripe
	stripes [nStripes]sync.RWMutex
	// lockcheck:level 30 stegdb/dirMu
	dirMu sync.Mutex
}

// nStripes is the bucket lock striping factor.
const nStripes = 64

// hash bucket page layout: next(8) nentries(2) then entries
// [klen u16][vlen u16][key][val]...
const bucketHdr = 10

// dirCapacity is how many bucket heads fit in the directory page.
const dirCapacity = (PageSize - 8) / 8 // count(8) + heads

// NewHashIndex opens (or initializes) the index stored under the pager's
// hash root. nBuckets is fixed at creation; reopening ignores the argument.
func NewHashIndex(pg *Pager, nBuckets int) (*HashIndex, error) {
	if root := pg.metaField(metaHashRoot); root != nilPage {
		h := &HashIndex{pg: pg, root: root}
		err := pg.viewPage(root, func(buf []byte) error {
			h.nBuckets = int(binary.BigEndian.Uint64(buf))
			return nil
		})
		if err != nil {
			return nil, err
		}
		return h, nil
	}
	if nBuckets <= 0 || nBuckets > dirCapacity {
		return nil, fmt.Errorf("stegdb: nBuckets %d out of (0,%d]", nBuckets, dirCapacity)
	}
	root, err := pg.AllocPage()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, PageSize)
	binary.BigEndian.PutUint64(buf, uint64(nBuckets))
	if err := pg.WritePage(root, buf); err != nil {
		return nil, err
	}
	pg.setMetaField(metaHashRoot, root)
	return &HashIndex{pg: pg, root: root, nBuckets: nBuckets}, nil
}

// bucketOf returns the bucket number for a key.
func (h *HashIndex) bucketOf(key []byte) int {
	s := sha256.Sum256(key)
	return int(binary.BigEndian.Uint64(s[:8]) % uint64(h.nBuckets))
}

// lockcheck:returns stegdb/stripe
func (h *HashIndex) stripeFor(bucket int) *sync.RWMutex {
	return &h.stripes[bucket%nStripes]
}

// head reads one bucket's head pointer from the directory frame in place.
func (h *HashIndex) head(bucket int) (int64, error) {
	var id int64
	err := h.pg.viewPage(h.root, func(buf []byte) error {
		id = headOf(buf, bucket)
		return nil
	})
	return id, err
}

// updateHead rewrites one bucket's head pointer with a fresh read-modify-
// write of the directory page under dirMu, so concurrent head updates on
// other buckets are never lost.
func (h *HashIndex) updateHead(bucket int, id int64) error {
	h.dirMu.Lock()
	defer h.dirMu.Unlock()
	dirBuf := make([]byte, PageSize)
	if err := h.pg.ReadPage(h.root, dirBuf); err != nil {
		return err
	}
	setHead(dirBuf, bucket, id)
	return h.pg.WritePage(h.root, dirBuf)
}

func headOf(dirBuf []byte, bucket int) int64 {
	return int64(binary.BigEndian.Uint64(dirBuf[8+bucket*8:]))
}

func setHead(dirBuf []byte, bucket int, id int64) {
	binary.BigEndian.PutUint64(dirBuf[8+bucket*8:], uint64(id))
}

// bucketPage is a decoded chain page.
type bucketPage struct {
	next    int64
	entries []kv
}

// decodeBucket parses a chain page, tolerating corrupt or truncated input
// (bounds are taken from len(buf), never assumed). Keys and values
// sub-slice buf (capacity-clipped), so buf must be the caller's private
// copy and must outlive the page; the entry slice is pre-sized from the
// page's count, clamped to what buf can hold.
func decodeBucket(buf []byte) (*bucketPage, error) {
	if len(buf) < bucketHdr {
		return nil, fmt.Errorf("stegdb: bucket page too short (%d bytes)", len(buf))
	}
	bp := &bucketPage{next: int64(binary.BigEndian.Uint64(buf))}
	n := int(binary.BigEndian.Uint16(buf[8:]))
	bp.entries = make([]kv, 0, min(n, (len(buf)-bucketHdr)/4))
	off := bucketHdr
	for i := 0; i < n; i++ {
		k, v, next, err := bucketEntry(buf, off)
		if err != nil {
			return nil, err
		}
		bp.entries = append(bp.entries, kv{key: k, val: v})
		off = next
	}
	return bp, nil
}

// bucketEntry parses the chain-page entry at off in place, returning its
// key and value (aliasing buf, capacity-clipped) and the next offset.
func bucketEntry(buf []byte, off int) (key, val []byte, next int, err error) {
	if off+4 > len(buf) {
		return nil, nil, 0, fmt.Errorf("stegdb: corrupt bucket page")
	}
	kl := int(binary.BigEndian.Uint16(buf[off:]))
	vl := int(binary.BigEndian.Uint16(buf[off+2:]))
	off += 4
	if off+kl+vl > len(buf) {
		return nil, nil, 0, fmt.Errorf("stegdb: corrupt bucket entry")
	}
	return buf[off : off+kl : off+kl], buf[off+kl : off+kl+vl : off+kl+vl], off + kl + vl, nil
}

// bucketFind searches a chain page for key in place: key's value (aliasing
// buf) if present, and the next page of the chain. It walks every entry,
// so it rejects exactly the pages decodeBucket rejects.
func bucketFind(buf, key []byte) (val []byte, next int64, found bool, err error) {
	if len(buf) < bucketHdr {
		return nil, 0, false, fmt.Errorf("stegdb: bucket page too short (%d bytes)", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[8:]))
	off := bucketHdr
	for i := 0; i < n; i++ {
		k, v, o, err := bucketEntry(buf, off)
		if err != nil {
			return nil, 0, false, err
		}
		if !found && bytes.Equal(k, key) {
			val, found = v, true
		}
		off = o
	}
	return val, int64(binary.BigEndian.Uint64(buf)), found, nil
}

// readBucket copies chain page id once and decodes it into a private,
// mutable page: the writers' read path.
func (h *HashIndex) readBucket(id int64) (*bucketPage, error) {
	buf := make([]byte, PageSize)
	if err := h.pg.ReadPage(id, buf); err != nil {
		return nil, err
	}
	return decodeBucket(buf)
}

// writeBucket encodes bp into a fresh buffer (bp's entries alias the page
// it was decoded from) and stores it as page id.
func (h *HashIndex) writeBucket(id int64, bp *bucketPage) error {
	buf := make([]byte, PageSize)
	if err := encodeBucket(bp, buf); err != nil {
		return err
	}
	return h.pg.WritePage(id, buf)
}

func encodeBucket(bp *bucketPage, buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	binary.BigEndian.PutUint64(buf, uint64(bp.next))
	binary.BigEndian.PutUint16(buf[8:], uint16(len(bp.entries)))
	off := bucketHdr
	for _, e := range bp.entries {
		need := 4 + len(e.key) + len(e.val)
		if off+need > PageSize {
			return fmt.Errorf("stegdb: bucket overflow during encode")
		}
		binary.BigEndian.PutUint16(buf[off:], uint16(len(e.key)))
		binary.BigEndian.PutUint16(buf[off+2:], uint16(len(e.val)))
		off += 4
		copy(buf[off:], e.key)
		off += len(e.key)
		copy(buf[off:], e.val)
		off += len(e.val)
	}
	return nil
}

func (bp *bucketPage) size() int {
	s := bucketHdr
	for _, e := range bp.entries {
		s += 4 + len(e.key) + len(e.val)
	}
	return s
}

// Put inserts or replaces key -> val in the index.
func (h *HashIndex) Put(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("stegdb: empty key")
	}
	if len(key)+len(val) > MaxEntry {
		return fmt.Errorf("stegdb: entry exceeds max %d", MaxEntry)
	}
	bucket := h.bucketOf(key)
	st := h.stripeFor(bucket)
	st.Lock()
	defer st.Unlock()
	for {
		again, err := h.putLocked(bucket, key, val)
		if err != nil || !again {
			return err
		}
		// A replacement grew past its page and was removed; re-run the
		// insert against the updated chain (the stripe lock is still held,
		// so at most one retry happens).
	}
}

// putLocked performs one insert/replace attempt; the caller holds the
// bucket's stripe exclusively, so the chain cannot change under it. It
// returns again=true when a grown replacement was removed and the insert
// must be retried.
//
// lockcheck:holds stegdb/stripe
func (h *HashIndex) putLocked(bucket int, key, val []byte) (again bool, err error) {
	head, err := h.head(bucket)
	if err != nil {
		return false, err
	}
	// Walk the chain in place. A private copy is taken, inside the same
	// visit, only of the pages this Put may rewrite: the head (a fresh
	// insert goes there) and the page holding key.
	var headBP, bp *bucketPage
	at, cur := nilPage, head
	for cur != nilPage && bp == nil {
		err := h.pg.viewPage(cur, func(buf []byte) error {
			_, next, found, err := bucketFind(buf, key)
			if err != nil || !(found || cur == head) {
				cur = next
				return err
			}
			priv, err := decodeBucket(append([]byte(nil), buf...))
			if err != nil {
				return err
			}
			if cur == head {
				headBP = priv
			}
			if found {
				bp, at = priv, cur
			}
			cur = next
			return nil
		})
		if err != nil {
			return false, err
		}
	}
	if bp != nil {
		for i := range bp.entries {
			if !bytes.Equal(bp.entries[i].key, key) {
				continue
			}
			bp.entries[i].val = val
			if bp.size() <= PageSize {
				return false, h.writeBucket(at, bp)
			}
			// Replacement grew past the page: remove here, reinsert.
			bp.entries = append(bp.entries[:i], bp.entries[i+1:]...)
			return true, h.writeBucket(at, bp)
		}
	}
	// Fresh insert: reuse the head page copied during the walk.
	if headBP != nil {
		headBP.entries = append(headBP.entries, kv{key: key, val: val})
		if headBP.size() <= PageSize {
			return false, h.writeBucket(head, headBP)
		}
	}
	// Head missing or full: prepend a new chain page.
	fresh, err := h.pg.AllocPage()
	if err != nil {
		return false, err
	}
	if err := h.writeBucket(fresh, &bucketPage{next: head, entries: []kv{{key: key, val: val}}}); err != nil {
		return false, err
	}
	return false, h.updateHead(bucket, fresh)
}

// Get returns the value stored under key, or (nil, false). The directory
// and chain pages are searched in place; the only copy is the returned
// value, at its exact size.
func (h *HashIndex) Get(key []byte) ([]byte, bool, error) {
	bucket := h.bucketOf(key)
	st := h.stripeFor(bucket)
	st.RLock()
	defer st.RUnlock()
	cur, err := h.head(bucket)
	if err != nil {
		return nil, false, err
	}
	var val []byte
	found := false
	for cur != nilPage && !found {
		err := h.pg.viewPage(cur, func(buf []byte) error {
			v, next, ok, err := bucketFind(buf, key)
			if ok {
				val, found = make([]byte, len(v)), true
				copy(val, v)
			}
			cur = next
			return err
		})
		if err != nil {
			return nil, false, err
		}
	}
	return val, found, nil
}

// Delete removes key, reporting whether it was present. Emptied chain pages
// are returned to the pager.
func (h *HashIndex) Delete(key []byte) (bool, error) {
	bucket := h.bucketOf(key)
	st := h.stripeFor(bucket)
	st.Lock()
	defer st.Unlock()
	cur, err := h.head(bucket)
	if err != nil {
		return false, err
	}
	// Walk the chain in place; copy only the page holding key.
	var bp *bucketPage
	prev := nilPage
	for cur != nilPage {
		var next int64
		err := h.pg.viewPage(cur, func(buf []byte) error {
			_, n, found, err := bucketFind(buf, key)
			if err != nil {
				return err
			}
			next = n
			if found {
				bp, err = decodeBucket(append([]byte(nil), buf...))
			}
			return err
		})
		if err != nil {
			return false, err
		}
		if bp != nil {
			break
		}
		prev, cur = cur, next
	}
	if bp == nil {
		return false, nil
	}
	for i := range bp.entries {
		if bytes.Equal(bp.entries[i].key, key) {
			bp.entries = append(bp.entries[:i], bp.entries[i+1:]...)
			break
		}
	}
	if len(bp.entries) > 0 {
		return true, h.writeBucket(cur, bp)
	}
	// Unlink the empty page from the chain.
	if prev == nilPage {
		if err := h.updateHead(bucket, bp.next); err != nil {
			return false, err
		}
	} else {
		pbp, err := h.readBucket(prev)
		if err != nil {
			return false, err
		}
		pbp.next = bp.next
		if err := h.writeBucket(prev, pbp); err != nil {
			return false, err
		}
	}
	return true, h.pg.FreePage(cur)
}

// Count returns the number of entries in the index by walking every bucket
// chain in place (Check cross-validation; O(pages)).
func (h *HashIndex) Count() (int64, error) {
	var total int64
	for b := 0; b < h.nBuckets; b++ {
		st := h.stripeFor(b)
		st.RLock()
		cur, err := h.head(b)
		for err == nil && cur != nilPage {
			err = h.pg.viewPage(cur, func(buf []byte) error {
				bp, err := decodeBucket(buf)
				if err != nil {
					return err
				}
				total += int64(len(bp.entries))
				cur = bp.next
				return nil
			})
		}
		st.RUnlock()
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
