// Package ptree implements the inode pointer tree shared by plain files and
// hidden files: a fixed number of direct block pointers followed by one
// single-indirect and one double-indirect pointer, as in classic Unix inodes
// (the paper models its central directory "after the inode table in Unix",
// and each hidden file carries "a link to an inode table that indexes all
// the data blocks in the file").
//
// The tree is written through a BlockIO, so the same code serves both sides:
// plain inodes write raw pointer blocks, while hidden files pass an
// encrypting BlockIO so their inode-table blocks are indistinguishable from
// random data on disk.
package ptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// NilBlock is the pointer value meaning "no block". Block 0 always holds a
// superblock in every scheme in this repository, so it can never be a data
// or pointer block.
const NilBlock int64 = 0

// BlockIO is the minimal block access the tree needs. Implementations may
// encrypt transparently.
type BlockIO interface {
	ReadBlock(n int64, buf []byte) error
	WriteBlock(n int64, buf []byte) error
	BlockSize() int
}

// BatchBlockIO is a BlockIO that can service many blocks in one request
// (mirroring vdisk.BatchDevice). When the IO offers it, Read fetches all the
// L1 indirect blocks of a double-indirect tree in a single batched request
// instead of one device round trip per pointer block.
type BatchBlockIO interface {
	BlockIO
	ReadBlocks(ns []int64, bufs [][]byte) error
}

// Warmer is a BlockIO that can make blocks resident in a cache without
// handing their contents out (blockcache.Cache, through stegfs's sealing
// BlockIO). ReadRange opens only the pointer blocks covering its range, but
// on a Warmer a range past the direct pointers first warms all of the
// file's pointer blocks — Single and Double, then every L1 block Double
// names — so a ranged walk keeps them as resident as a whole-file walk
// does, and a cold tree costs one batched fetch per level rather than one
// round trip per covering block. Only Double and the covering blocks are
// opened and parsed.
type Warmer interface {
	Warm(ns []int64) error
}

// AllocFunc returns a fresh block to hold pointer (indirect) data.
type AllocFunc func() (int64, error)

// FreeFunc releases a pointer block.
type FreeFunc func(int64)

// Root is the pointer set stored inside an inode or hidden-file header.
type Root struct {
	Direct []int64 // len fixed by the owner's on-disk format
	Single int64   // single-indirect pointer block (NilBlock if unused)
	Double int64   // double-indirect pointer block (NilBlock if unused)
}

// NewRoot returns an empty root with nDirect direct slots.
func NewRoot(nDirect int) Root {
	d := make([]int64, nDirect)
	for i := range d {
		d[i] = NilBlock
	}
	return Root{Direct: d, Single: NilBlock, Double: NilBlock}
}

// ErrTooLarge reports a file that exceeds the addressable range of the tree.
var ErrTooLarge = errors.New("ptree: file exceeds maximum addressable size")

// MaxBlocks returns the number of data blocks addressable with nDirect
// direct pointers and the given block size.
func MaxBlocks(nDirect, blockSize int) int64 {
	ppb := int64(blockSize / 8)
	return int64(nDirect) + ppb + ppb*ppb
}

// ptrsPerBlock returns how many 8-byte pointers fit in one block.
func ptrsPerBlock(io BlockIO) int64 { return int64(io.BlockSize() / 8) }

// Write stores the data-block list under a root, allocating indirect blocks
// with alloc as needed. It returns the root and the list of indirect blocks
// it allocated (the owner must account for them, e.g. mark them in a bitmap
// or report them in Stat).
func Write(io BlockIO, alloc AllocFunc, nDirect int, blocks []int64) (Root, []int64, error) {
	root := NewRoot(nDirect)
	var meta []int64
	n := len(blocks)
	if int64(n) > MaxBlocks(nDirect, io.BlockSize()) {
		return root, nil, fmt.Errorf("%w: %d blocks", ErrTooLarge, n)
	}

	// Direct pointers.
	for i := 0; i < nDirect && i < n; i++ {
		root.Direct[i] = blocks[i]
	}
	if n <= nDirect {
		return root, meta, nil
	}
	rest := blocks[nDirect:]
	ppb := ptrsPerBlock(io)

	// Single indirect.
	cnt := int64(len(rest))
	if cnt > ppb {
		cnt = ppb
	}
	sb, err := writePtrBlock(io, alloc, rest[:cnt])
	if err != nil {
		if sb != NilBlock {
			meta = append(meta, sb)
		}
		return root, meta, err
	}
	root.Single = sb
	meta = append(meta, sb)
	rest = rest[cnt:]
	if len(rest) == 0 {
		return root, meta, nil
	}

	// Double indirect.
	var l1 []int64
	for len(rest) > 0 {
		cnt = int64(len(rest))
		if cnt > ppb {
			cnt = ppb
		}
		ib, err := writePtrBlock(io, alloc, rest[:cnt])
		if err != nil {
			if ib != NilBlock {
				meta = append(meta, ib)
			}
			return root, meta, err
		}
		meta = append(meta, ib)
		l1 = append(l1, ib)
		rest = rest[cnt:]
	}
	if int64(len(l1)) > ppb {
		return root, meta, fmt.Errorf("%w: needs %d L1 pointers", ErrTooLarge, len(l1))
	}
	db, err := writePtrBlock(io, alloc, l1)
	if err != nil {
		if db != NilBlock {
			meta = append(meta, db)
		}
		return root, meta, err
	}
	root.Double = db
	meta = append(meta, db)
	return root, meta, nil
}

// writePtrBlock allocates a block and writes the pointers into it (remaining
// slots are NilBlock). On a write failure the already-allocated block is
// returned alongside the error so the caller can report it in meta — error
// paths free the meta list, and a block dropped here would leak for the
// volume's lifetime.
func writePtrBlock(io BlockIO, alloc AllocFunc, ptrs []int64) (int64, error) {
	b, err := alloc()
	if err != nil {
		return NilBlock, err
	}
	buf := make([]byte, io.BlockSize())
	for i, p := range ptrs {
		binary.BigEndian.PutUint64(buf[i*8:], uint64(p))
	}
	if err := io.WriteBlock(b, buf); err != nil {
		return b, err
	}
	return b, nil
}

// ptrBufPool recycles the scratch block buffers pointer-block reads decode
// from, so traversing a tree allocates nothing once warm.
var ptrBufPool sync.Pool

func getPtrBuf(bs int) *[]byte {
	if p, _ := ptrBufPool.Get().(*[]byte); p != nil && cap(*p) >= bs {
		*p = (*p)[:bs]
		return p
	}
	b := make([]byte, bs)
	return &b
}

// Read returns the data-block list of a file with nBlocks blocks stored
// under root.
func Read(io BlockIO, root Root, nBlocks int64) ([]int64, error) {
	return ReadInto(io, root, nBlocks, nil)
}

// ReadInto is Read appending into dst[:0], so callers that traverse the same
// tree repeatedly can reuse one backing array; it returns the (possibly
// regrown) slice. It is ReadRange over the whole file. Pointer-block scratch
// comes from internal pools — a warm caller passing an adequately sized dst
// triggers no allocation at all.
func ReadInto(io BlockIO, root Root, nBlocks int64, dst []int64) ([]int64, error) {
	if nBlocks < 0 {
		return nil, fmt.Errorf("ptree: negative block count %d", nBlocks)
	}
	if nBlocks == 0 {
		return dst[:0], nil
	}
	return ReadRange(io, root, nBlocks, 0, nBlocks-1, dst)
}

// l1Scratch is the pooled working set of a double-indirect walk: the L1
// block numbers taken from the Double block, and a flat staging buffer with
// one view per L1 block, so a warm walk allocates nothing.
type l1Scratch struct {
	ns   []int64
	raw  []byte
	bufs [][]byte
}

var l1Pool = sync.Pool{New: func() any { return new(l1Scratch) }}

// readL1 reads the L1 blocks sc.ns into sc.bufs: in one batched request when
// there are several and io offers BatchBlockIO, else block by block.
func (sc *l1Scratch) readL1(io BlockIO) error {
	bs, n := io.BlockSize(), len(sc.ns)
	if cap(sc.raw) < n*bs {
		sc.raw = make([]byte, n*bs)
	}
	if cap(sc.bufs) < n {
		sc.bufs = make([][]byte, n)
	}
	sc.bufs = sc.bufs[:n]
	for i := range sc.bufs {
		sc.bufs[i] = sc.raw[i*bs : (i+1)*bs]
	}
	if bio, ok := io.(BatchBlockIO); ok && n > 1 {
		return bio.ReadBlocks(sc.ns, sc.bufs)
	}
	for i, b := range sc.ns {
		if err := io.ReadBlock(b, sc.bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadRange returns the data blocks first..last (inclusive) of a file with
// nBlocks blocks stored under root, appended into dst[:0] like ReadInto. It
// opens only the pointer blocks that cover the range: none for the direct
// part, Single only if the range overlaps it, and Double plus the covering
// L1 blocks (batched like ReadInto's). When io is a Warmer, a range past
// the direct pointers first warms the file's whole pointer tree (see
// Warmer). A NilBlock pointer inside the range is an error, so the result
// never contains NilBlock.
func ReadRange(io BlockIO, root Root, nBlocks, first, last int64, dst []int64) ([]int64, error) {
	if first < 0 || first > last || last >= nBlocks {
		return nil, fmt.Errorf("ptree: range [%d,%d] outside file of %d blocks", first, last, nBlocks)
	}
	if nBlocks > MaxBlocks(len(root.Direct), io.BlockSize()) {
		return nil, fmt.Errorf("%w: %d blocks", ErrTooLarge, nBlocks)
	}
	out := dst[:0]
	nd := int64(len(root.Direct))
	ppb := ptrsPerBlock(io)
	i := first
	for ; i <= last && i < nd; i++ {
		if root.Direct[i] == NilBlock {
			return nil, fmt.Errorf("ptree: nil pointer for block %d", i)
		}
		out = append(out, root.Direct[i])
	}
	if i > last {
		return out, nil
	}
	sc := l1Pool.Get().(*l1Scratch)
	defer l1Pool.Put(sc)
	// Data block j >= base sits in slot (j-base)%ppb of the L1 block that
	// slot (j-base)/ppb of the Double block names.
	base := nd + ppb
	dbl := getPtrBuf(io.BlockSize()) // the Double block, once read
	defer ptrBufPool.Put(dbl)
	haveDbl := false
	var err error
	if w, ok := io.(Warmer); ok {
		if haveDbl, err = warmIndex(io, w, root, nBlocks, base, *dbl, sc); err != nil {
			return nil, err
		}
	}
	if i < base {
		if root.Single == NilBlock {
			return nil, errors.New("ptree: missing single-indirect block")
		}
		hi := min(last, base-1)
		if out, err = readSlots(io, root.Single, i-nd, hi-nd, i, out); err != nil {
			return nil, err
		}
		if i = hi + 1; i > last {
			return out, nil
		}
	}
	if root.Double == NilBlock {
		return nil, errors.New("ptree: missing double-indirect block")
	}
	if !haveDbl {
		if err := io.ReadBlock(root.Double, *dbl); err != nil {
			return nil, err
		}
	}
	lo1, hi1 := (i-base)/ppb, (last-base)/ppb
	if sc.ns, err = slotPtrs(*dbl, lo1, hi1, -1, sc.ns[:0]); err != nil {
		return nil, err
	}
	if err := sc.readL1(io); err != nil {
		return nil, err
	}
	for k, buf := range sc.bufs {
		lo, hi := int64(0), ppb-1
		if k == 0 {
			lo = (i - base) % ppb
		}
		if k == len(sc.bufs)-1 {
			hi = (last - base) % ppb
		}
		if out, err = slotPtrs(buf, lo, hi, base+(lo1+int64(k))*ppb+lo, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warmIndex warms the whole pointer tree of a file with nBlocks blocks
// whose double-indirect part starts at data block base: Single and Double
// in one Warm, then, with Double read into dbl, every L1 block it names in
// a second. A nil slot is skipped, not reported: ReadRange reports those
// inside its range. It returns whether dbl holds Double.
func warmIndex(io BlockIO, w Warmer, root Root, nBlocks, base int64, dbl []byte, sc *l1Scratch) (bool, error) {
	sc.ns = sc.ns[:0]
	if root.Single != NilBlock {
		sc.ns = append(sc.ns, root.Single)
	}
	hasDbl := nBlocks > base && root.Double != NilBlock
	if hasDbl {
		sc.ns = append(sc.ns, root.Double)
	}
	if err := w.Warm(sc.ns); err != nil || !hasDbl {
		return false, err
	}
	if err := io.ReadBlock(root.Double, dbl); err != nil {
		return false, err
	}
	sc.ns = sc.ns[:0]
	for s := int64(0); s <= (nBlocks-1-base)/ptrsPerBlock(io); s++ {
		if ptr := int64(binary.BigEndian.Uint64(dbl[s*8:])); ptr != NilBlock {
			sc.ns = append(sc.ns, ptr)
		}
	}
	return true, w.Warm(sc.ns)
}

// readSlots reads pointer block b and appends its slots lo..hi to dst (see
// slotPtrs).
func readSlots(io BlockIO, b, lo, hi, firstData int64, dst []int64) ([]int64, error) {
	p := getPtrBuf(io.BlockSize())
	defer ptrBufPool.Put(p)
	if err := io.ReadBlock(b, *p); err != nil {
		return nil, err
	}
	return slotPtrs(*p, lo, hi, firstData, dst)
}

// slotPtrs appends pointer slots lo..hi (inclusive) of a raw pointer block
// to dst. A NilBlock slot is an error naming data block firstData+(slot-lo),
// or naming the slot itself when firstData is negative (a Double block's L1
// pointers).
func slotPtrs(buf []byte, lo, hi, firstData int64, dst []int64) ([]int64, error) {
	for s := lo; s <= hi; s++ {
		ptr := int64(binary.BigEndian.Uint64(buf[s*8:]))
		if ptr == NilBlock {
			if firstData < 0 {
				return nil, fmt.Errorf("ptree: nil L1 pointer in double-indirect slot %d", s)
			}
			return nil, fmt.Errorf("ptree: nil pointer for block %d", firstData+s-lo)
		}
		dst = append(dst, ptr)
	}
	return dst, nil
}

// MetaBlocks returns the indirect blocks reachable from root for a file of
// nBlocks data blocks (in read order), so owners can free or image them.
func MetaBlocks(io BlockIO, root Root, nBlocks int64) ([]int64, error) {
	var out []int64
	nd := int64(len(root.Direct))
	if nBlocks <= nd {
		return out, nil
	}
	if root.Single == NilBlock {
		return nil, errors.New("ptree: missing single-indirect block")
	}
	out = append(out, root.Single)
	ppb := ptrsPerBlock(io)
	rem := nBlocks - nd - ppb
	if rem <= 0 {
		return out, nil
	}
	if nBlocks > MaxBlocks(len(root.Direct), io.BlockSize()) {
		return nil, fmt.Errorf("%w: %d blocks", ErrTooLarge, nBlocks)
	}
	if root.Double == NilBlock {
		return nil, errors.New("ptree: missing double-indirect block")
	}
	out, err := readSlots(io, root.Double, 0, (rem-1)/ppb, -1, out)
	if err != nil {
		return nil, err
	}
	return append(out, root.Double), nil
}

// Free releases all indirect blocks of the tree via free. Data blocks are
// the owner's responsibility.
func Free(io BlockIO, root Root, nBlocks int64, free FreeFunc) error {
	meta, err := MetaBlocks(io, root, nBlocks)
	if err != nil {
		return err
	}
	for _, b := range meta {
		free(b)
	}
	return nil
}
