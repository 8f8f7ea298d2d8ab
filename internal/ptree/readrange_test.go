package ptree

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
)

// rangeTree is a written tree plus the pointer blocks Write allocated:
// meta[0] is Single, meta[1:len-1] the L1 blocks, meta[len-1] Double.
type rangeTree struct {
	io     *memIO
	root   Root
	blocks []int64
	meta   []int64
}

// Sizes at 1 KB blocks (128 pointers per block) with 24 direct slots that
// straddle the direct (24), single (24+128 = 152) and double (152+k·128)
// boundaries.
const rangeBS, rangeDirect = 1024, 24

var rangeSizes = []int{1, 24, 25, 152, 153, 280, 281, 152 + 2*128 + 7}

func writeRangeTree(t *testing.T, n int) rangeTree {
	t.Helper()
	io := newMemIO(rangeBS)
	blocks := make([]int64, n)
	for i := range blocks {
		blocks[i] = int64(5000 + 3*i)
	}
	root, meta, err := Write(io, newSeqAlloc().alloc, rangeDirect, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return rangeTree{io: io, root: root, blocks: blocks, meta: meta}
}

// TestReadRangeMatchesReadInto: ReadInto returns the list Write stored,
// and for every (first, last) of every size ReadRange returns exactly
// ReadInto(...)[first:last+1].
func TestReadRangeMatchesReadInto(t *testing.T) {
	for _, n := range rangeSizes {
		tr := writeRangeTree(t, n)
		all, err := ReadInto(tr.io, tr.root, int64(n), nil)
		if err != nil {
			t.Fatalf("n=%d: ReadInto: %v", n, err)
		}
		if !slices.Equal(all, tr.blocks) {
			t.Fatalf("n=%d: ReadInto = %v, Write stored %v", n, all, tr.blocks)
		}
		var dst []int64
		for first := 0; first < n; first++ {
			for last := first; last < n; last++ {
				dst, err = ReadRange(tr.io, tr.root, int64(n), int64(first), int64(last), dst)
				if err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, first, last, err)
				}
				want := all[first : last+1]
				if len(dst) != len(want) {
					t.Fatalf("n=%d [%d,%d]: got %d blocks, want %d", n, first, last, len(dst), len(want))
				}
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("n=%d [%d,%d]: block %d = %d, want %d", n, first, last, first+i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// countIO records every block read, split into single reads and batches.
type countIO struct {
	*memIO
	reads   map[int64]int
	batches int
}

func (c *countIO) ReadBlock(n int64, buf []byte) error {
	c.reads[n]++
	return c.memIO.ReadBlock(n, buf)
}

func (c *countIO) ReadBlocks(ns []int64, bufs [][]byte) error {
	c.batches++
	for i, n := range ns {
		if err := c.ReadBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestReadRangeReadsOnlyCoveringBlocks: ReadRange reads no pointer block
// for a direct range, Single only when the range overlaps it, and Double
// plus exactly the covering L1 blocks — each once, the L1s in one batch
// when there are several.
func TestReadRangeReadsOnlyCoveringBlocks(t *testing.T) {
	const single, base, ppb = rangeDirect, rangeDirect + rangeBS/8, rangeBS / 8
	for _, n := range rangeSizes {
		tr := writeRangeTree(t, n)
		cio := &countIO{memIO: tr.io, reads: map[int64]int{}}
		want := map[int64]int{}
		var dst []int64
		for first := 0; first < n; first++ {
			for last := first; last < n; last++ {
				clear(cio.reads)
				clear(want)
				cio.batches = 0
				var err error
				if dst, err = ReadRange(cio, tr.root, int64(n), int64(first), int64(last), dst); err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, first, last, err)
				}
				if first < base && last >= single {
					want[tr.meta[0]] = 1
				}
				if last >= base {
					want[tr.meta[len(tr.meta)-1]] = 1
					lo1, hi1 := (max(first, base)-base)/ppb, (last-base)/ppb
					for k := lo1; k <= hi1; k++ {
						want[tr.meta[1+k]] = 1
					}
					if wantBatches := min(1, hi1-lo1); cio.batches != wantBatches {
						t.Fatalf("n=%d [%d,%d]: %d batched reads, want %d", n, first, last, cio.batches, wantBatches)
					}
				}
				if len(cio.reads) != len(want) {
					t.Fatalf("n=%d [%d,%d]: read %v, want %v", n, first, last, cio.reads, want)
				}
				for b, k := range want {
					if cio.reads[b] != k {
						t.Fatalf("n=%d [%d,%d]: read %v, want %v", n, first, last, cio.reads, want)
					}
				}
			}
		}
	}
}

// TestReadRangeErrors: a missing Single, Double or L1 block, a nil pointer
// in any part of the tree, and a range outside the file all fail.
func TestReadRangeErrors(t *testing.T) {
	const n = 152 + 2*128 // Single plus two L1 blocks
	cases := []struct {
		name        string
		first, last int64
		corrupt     func(*rangeTree)
		want        string
	}{
		{"missing single", 30, 30, func(tr *rangeTree) { tr.root.Single = NilBlock }, "missing single-indirect"},
		{"missing double", 200, 200, func(tr *rangeTree) { tr.root.Double = NilBlock }, "missing double-indirect"},
		{"unreadable single", 30, 30, func(tr *rangeTree) { delete(tr.io.data, tr.meta[0]) }, "unwritten"},
		{"unreadable double", 200, 200, func(tr *rangeTree) { delete(tr.io.data, tr.meta[len(tr.meta)-1]) }, "unwritten"},
		{"unreadable L1", 200, 200, func(tr *rangeTree) { delete(tr.io.data, tr.meta[1]) }, "unwritten"},
		{"unreadable second L1 in batch", 270, 290, func(tr *rangeTree) { delete(tr.io.data, tr.meta[2]) }, "unwritten"},
		{"nil direct", 3, 5, func(tr *rangeTree) { tr.root.Direct[4] = NilBlock }, "nil pointer for block 4"},
		{"nil single slot", 25, 40, func(tr *rangeTree) { zeroSlot(tr.io, tr.meta[0], 30-24) }, "nil pointer for block 30"},
		{"nil L1 slot", 150, 300, func(tr *rangeTree) { zeroSlot(tr.io, tr.meta[2], 290-280) }, "nil pointer for block 290"},
		{"nil L1 pointer", 300, 300, func(tr *rangeTree) { zeroSlot(tr.io, tr.meta[len(tr.meta)-1], 1) }, "nil L1 pointer"},
		{"last beyond file", 0, n, func(*rangeTree) {}, "outside file"},
		{"first after last", 9, 8, func(*rangeTree) {}, "outside file"},
		{"negative first", -1, 3, func(*rangeTree) {}, "outside file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := writeRangeTree(t, n)
			tc.corrupt(&tr)
			got, err := ReadRange(tr.io, tr.root, n, tc.first, tc.last, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadRange = %v, %v; want error containing %q", got, err, tc.want)
			}
		})
	}
}

// TestReadBeyondMaxBlocks: a block count past the tree's addressable range
// (a corrupt inode or header) is ErrTooLarge from every reader, not an
// out-of-bounds pointer-slot access.
func TestReadBeyondMaxBlocks(t *testing.T) {
	tr := writeRangeTree(t, 200)
	limit := MaxBlocks(rangeDirect, rangeBS)
	if _, err := ReadRange(tr.io, tr.root, limit+5, limit, limit+1, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadRange past MaxBlocks = %v, want ErrTooLarge", err)
	}
	// A small range of an oversized file fails too, also on a Warmer, whose
	// walk would otherwise read L1 slots past the end of Double.
	w := &warmIO{countIO: countIO{memIO: tr.io, reads: map[int64]int{}}, warmed: map[int64]bool{}}
	if _, err := ReadRange(w, tr.root, limit+5, 30, 30, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadRange of block 30 in an oversized file = %v, want ErrTooLarge", err)
	}
	if _, err := ReadInto(tr.io, tr.root, limit+1, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadInto past MaxBlocks = %v, want ErrTooLarge", err)
	}
	if _, err := MetaBlocks(tr.io, tr.root, limit+1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("MetaBlocks past MaxBlocks = %v, want ErrTooLarge", err)
	}
}

// zeroSlot overwrites pointer slot s of pointer block b with NilBlock.
func zeroSlot(io *memIO, b int64, s int) {
	for i := 0; i < 8; i++ {
		io.data[b][s*8+i] = 0
	}
}

// TestTreeWalkAllocFree pins the pooled scratch: once warm, a whole-tree
// ReadInto (L1 blocks batched or read one by one) and a ReadRange spanning
// two L1 blocks allocate nothing when dst is large enough.
func TestTreeWalkAllocFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	if raceEnabled {
		t.Skip("race instrumentation drops pooled objects")
	}
	tr := writeRangeTree(t, 152+3*128+7)
	n := int64(len(tr.blocks))
	dst := make([]int64, 0, n)
	for _, tc := range []struct {
		name string
		io   BlockIO
		walk func(BlockIO) error
	}{
		{"ReadInto batched", &batchIO{memIO: tr.io}, func(io BlockIO) (err error) {
			_, err = ReadInto(io, tr.root, n, dst)
			return
		}},
		{"ReadInto unbatched", tr.io, func(io BlockIO) (err error) {
			_, err = ReadInto(io, tr.root, n, dst)
			return
		}},
		{"ReadRange", &batchIO{memIO: tr.io}, func(io BlockIO) (err error) {
			_, err = ReadRange(io, tr.root, n, 270, 290, dst)
			return
		}},
	} {
		if err := tc.walk(tc.io); err != nil { // warm the pools
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := tc.walk(tc.io); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// warmIO is a countIO that is also a Warmer: it records each Warm call and
// checks that every pointer block read was warmed before.
type warmIO struct {
	countIO
	warms  [][]int64
	warmed map[int64]bool
	cold   []int64 // blocks read without a prior Warm
}

func (w *warmIO) Warm(ns []int64) error {
	w.warms = append(w.warms, slices.Clone(ns))
	for _, n := range ns {
		w.warmed[n] = true
	}
	return nil
}

func (w *warmIO) ReadBlock(n int64, buf []byte) error {
	if !w.warmed[n] {
		w.cold = append(w.cold, n)
	}
	return w.countIO.ReadBlock(n, buf)
}

func (w *warmIO) ReadBlocks(ns []int64, bufs [][]byte) error {
	w.batches++
	for i, n := range ns {
		if err := w.ReadBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestReadRangeWarmsWholeTree: on a Warmer, ReadRange warms nothing for a
// direct range; a range past the direct pointers first warms Single and
// Double (the latter when the file has one) in one call and then, having
// read Double, every L1 block of the file in a second. It still reads only
// Double and the covering pointer blocks, each once and each after it was
// warmed.
func TestReadRangeWarmsWholeTree(t *testing.T) {
	const single, base, ppb = rangeDirect, rangeDirect + rangeBS/8, rangeBS / 8
	for _, n := range rangeSizes {
		tr := writeRangeTree(t, n)
		var roots, l1s []int64
		if len(tr.meta) > 0 {
			roots = append(roots, tr.meta[0])
		}
		hasDouble := len(tr.meta) > 1
		if hasDouble {
			roots = append(roots, tr.meta[len(tr.meta)-1])
			l1s = tr.meta[1 : len(tr.meta)-1]
		}
		var dst []int64
		for first := 0; first < n; first++ {
			for last := first; last < n; last++ {
				w := &warmIO{countIO: countIO{memIO: tr.io, reads: map[int64]int{}}, warmed: map[int64]bool{}}
				var err error
				if dst, err = ReadRange(w, tr.root, int64(n), int64(first), int64(last), dst); err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, first, last, err)
				}
				var wantWarms [][]int64
				wantReads := map[int64]int{}
				if last >= single {
					wantWarms = append(wantWarms, roots)
					if hasDouble {
						wantWarms = append(wantWarms, l1s)
						wantReads[tr.meta[len(tr.meta)-1]] = 1
					}
				}
				if first < base && last >= single {
					wantReads[tr.meta[0]] = 1
				}
				if last >= base {
					for k := (max(first, base) - base) / ppb; k <= (last-base)/ppb; k++ {
						wantReads[tr.meta[1+k]] = 1
					}
				}
				if !slices.EqualFunc(w.warms, wantWarms, slices.Equal) {
					t.Fatalf("n=%d [%d,%d]: warmed %v, want %v", n, first, last, w.warms, wantWarms)
				}
				if len(w.cold) != 0 {
					t.Fatalf("n=%d [%d,%d]: read %v before warming them", n, first, last, w.cold)
				}
				if !maps.Equal(w.reads, wantReads) {
					t.Fatalf("n=%d [%d,%d]: read %v, want %v", n, first, last, w.reads, wantReads)
				}
			}
		}
	}
}
