package stegfs

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"stegfs/internal/blockcache"
)

func newIOView(t *testing.T) *HiddenView {
	t.Helper()
	fs, _ := newTestFS(t, 8192, 512, nil)
	return fs.NewHiddenView("io")
}

func TestReadAtBasics(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(3000, 1)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	n, err := v.ReadAt("f", buf, 700)
	if err != nil || n != 100 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, want[700:800]) {
		t.Fatal("ReadAt content mismatch")
	}
	// Read straddling a block boundary (512).
	n, err = v.ReadAt("f", buf, 480)
	if err != nil || n != 100 {
		t.Fatalf("straddling ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, want[480:580]) {
		t.Fatal("straddling ReadAt mismatch")
	}
	// Short read at EOF.
	n, err = v.ReadAt("f", buf, 2950)
	if err != io.EOF || n != 50 {
		t.Fatalf("EOF ReadAt = %d, %v", n, err)
	}
	if _, err = v.ReadAt("f", buf, 5000); err != io.EOF {
		t.Fatalf("past-EOF ReadAt err = %v", err)
	}
}

func TestWriteAtInPlace(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(3000, 2)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xAB}, 600) // straddles two block boundaries
	if _, err := v.WriteAt("f", patch, 400); err != nil {
		t.Fatal(err)
	}
	copy(want[400:], patch)
	got, err := v.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("WriteAt corrupted surroundings")
	}
	// Out-of-bounds writes refused.
	if _, err := v.WriteAt("f", patch, 2600); err == nil {
		t.Fatal("write past EOF should fail")
	}
	if _, err := v.WriteAt("f", patch, -1); err == nil {
		t.Fatal("negative offset should fail")
	}
}

func TestResizeGrowShrink(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(1000, 3)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	// Grow within the same block count first (1000 -> 1024).
	if err := v.Resize("f", 1024); err != nil {
		t.Fatal(err)
	}
	got, _ := v.Read("f")
	if len(got) != 1024 || !bytes.Equal(got[:1000], want) {
		t.Fatal("same-shape grow lost data")
	}
	for _, b := range got[1000:] {
		if b != 0 {
			t.Fatal("grown tail not zeroed")
		}
	}
	// Grow across blocks.
	if err := v.Resize("f", 5000); err != nil {
		t.Fatal(err)
	}
	got, _ = v.Read("f")
	if len(got) != 5000 || !bytes.Equal(got[:1000], want) {
		t.Fatal("cross-shape grow lost prefix")
	}
	// Shrink.
	if err := v.Resize("f", 300); err != nil {
		t.Fatal(err)
	}
	got, _ = v.Read("f")
	if len(got) != 300 || !bytes.Equal(got, want[:300]) {
		t.Fatal("shrink lost prefix")
	}
	if err := v.Resize("f", -1); err == nil {
		t.Fatal("negative resize should fail")
	}
}

// TestPropertyReadAtMatchesRead: random windows through ReadAt equal the
// same slices of a whole-file Read.
func TestPropertyReadAtMatchesRead(t *testing.T) {
	v := newIOView(t)
	want := mkPayload(9000, 4)
	if err := v.Create("f", want); err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, lenRaw uint16) bool {
		off := int64(offRaw) % 9000
		l := int(lenRaw)%2000 + 1
		buf := make([]byte, l)
		n, err := v.ReadAt("f", buf, off)
		if err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(buf[:n], want[off:int(off)+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWriteAtReadAt: random in-place writes are faithfully readable
// and leave everything else intact.
func TestPropertyWriteAtReadAt(t *testing.T) {
	v := newIOView(t)
	ref := mkPayload(8000, 5)
	if err := v.Create("f", append([]byte(nil), ref...)); err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, lenRaw uint16, tag byte) bool {
		off := int(offRaw) % 8000
		l := int(lenRaw)%1000 + 1
		if off+l > 8000 {
			l = 8000 - off
		}
		patch := bytes.Repeat([]byte{tag}, l)
		if _, err := v.WriteAt("f", patch, int64(off)); err != nil {
			return false
		}
		copy(ref[off:], patch)
		got, err := v.Read("f")
		if err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReadAtWriteAtAcrossTreeBoundaries: page-sized ReadAt and WriteAt
// windows that start, end or straddle the direct/single-indirect and
// single/double-indirect boundaries (and an L1 boundary inside the double
// part) read and write exactly the bytes a whole-file Read sees.
func TestReadAtWriteAtAcrossTreeBoundaries(t *testing.T) {
	v := newIOView(t)
	const bs = 512                                    // 64 pointers per block
	const size = (hdrNumDirect + 64 + 2*64 + 10) * bs // Single plus three L1 blocks
	ref := mkPayload(size, 6)
	if err := v.Create("f", append([]byte(nil), ref...)); err != nil {
		t.Fatal(err)
	}
	var tag byte
	for _, blk := range []int{0, hdrNumDirect, hdrNumDirect + 64, hdrNumDirect + 2*64, hdrNumDirect + 3*64} {
		for _, delta := range []int{-bs - 7, -1, 0, 1, bs / 2} {
			for _, l := range []int{1, bs, 4096, 3 * 4096} {
				off := blk*bs + delta
				if off < 0 || off+l > size {
					continue
				}
				buf := make([]byte, l)
				if _, err := v.ReadAt("f", buf, int64(off)); err != nil {
					t.Fatalf("ReadAt(%d, %d): %v", off, l, err)
				}
				if !bytes.Equal(buf, ref[off:off+l]) {
					t.Fatalf("ReadAt(%d, %d) returned wrong bytes", off, l)
				}
				tag++
				patch := bytes.Repeat([]byte{tag}, l)
				if _, err := v.WriteAt("f", patch, int64(off)); err != nil {
					t.Fatalf("WriteAt(%d, %d): %v", off, l, err)
				}
				copy(ref[off:], patch)
			}
		}
	}
	got, err := v.Read("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("whole-file Read disagrees with the ReadAt/WriteAt model")
	}
}

// TestRangedReadAtKeepsPointerBlocksWarm: a page ReadAt opens only the
// pointer blocks covering it, but warms every pointer block of the file in
// the cache, so after one cold ReadAt a ReadAt under another L1 block misses
// on its data blocks only, as it did when every ReadAt walked the whole tree.
func TestRangedReadAtKeepsPointerBlocksWarm(t *testing.T) {
	fs, v := perfVolume(t)
	const bs, ppb = 1024, 1024 / 8
	data := mkPayload((hdrNumDirect+ppb+4*ppb)*bs, 7) // Single plus four L1 blocks
	if err := v.Create("big", data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Cache().Invalidate(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*bs)
	read := func(blk int) blockcache.Stats {
		t.Helper()
		pre := fs.Cache().Stats()
		off := int64(blk) * bs
		if _, err := v.ReadAt("big", buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+int64(len(buf))]) {
			t.Fatalf("ReadAt(block %d) returned wrong bytes", blk)
		}
		return fs.Cache().Stats().Sub(pre)
	}
	read(hdrNumDirect + ppb + 8) // under the first L1 block, cold
	for _, blk := range []int{hdrNumDirect + ppb + 3*ppb + 5, hdrNumDirect + 40, hdrNumDirect + ppb + 2*ppb} {
		if d := read(blk); d.Misses != 4 {
			t.Errorf("ReadAt(block %d) after a warming ReadAt: %d misses, want 4 (its data blocks)", blk, d.Misses)
		}
	}
}
