package blockcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"stegfs/internal/vdisk"
)

func fillStore(t *testing.T, blocks int64, bs int) *vdisk.MemStore {
	t.Helper()
	store, err := vdisk.NewMemStore(blocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	for b := int64(0); b < blocks; b++ {
		for i := range buf {
			buf[i] = byte(b) ^ byte(i*13)
		}
		if err := store.WriteBlock(b, buf); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func expectBlock(b int64, bs int) []byte {
	buf := make([]byte, bs)
	for i := range buf {
		buf[i] = byte(b) ^ byte(i*13)
	}
	return buf
}

// TestReadBlocksMixedHitMiss: a batch spanning resident and cold blocks must
// return the same bytes as the serial path and account one hit or one miss
// per block.
func TestReadBlocksMixedHitMiss(t *testing.T) {
	store := fillStore(t, 128, 256)
	c := New(store, 64)
	// Warm blocks 10 and 12.
	warm := make([]byte, 256)
	for _, b := range []int64{10, 12} {
		if err := c.ReadBlock(b, warm); err != nil {
			t.Fatal(err)
		}
	}
	pre := c.Stats()
	ns := []int64{12, 50, 10, 51, 52}
	bufs := make([][]byte, len(ns))
	for i := range bufs {
		bufs[i] = make([]byte, 256)
	}
	if err := c.ReadBlocks(ns, bufs); err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		if !bytes.Equal(bufs[i], expectBlock(n, 256)) {
			t.Fatalf("block %d corrupted through batch read", n)
		}
	}
	d := c.Stats().Sub(pre)
	if d.Hits != 2 || d.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 2/3", d.Hits, d.Misses)
	}
	// All five must now be resident: a second batch is pure hits.
	pre = c.Stats()
	if err := c.ReadBlocks(ns, bufs); err != nil {
		t.Fatal(err)
	}
	if d := c.Stats().Sub(pre); d.Hits != 5 || d.Misses != 0 {
		t.Fatalf("second pass hits/misses = %d/%d, want 5/0", d.Hits, d.Misses)
	}
}

// TestReadBlocksDuplicates: a batch naming the same block twice must fill
// both buffers and fetch the block once.
func TestReadBlocksDuplicates(t *testing.T) {
	store := fillStore(t, 64, 256)
	c := New(store, 16)
	ns := []int64{7, 7, 7}
	bufs := [][]byte{make([]byte, 256), make([]byte, 256), make([]byte, 256)}
	if err := c.ReadBlocks(ns, bufs); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if !bytes.Equal(bufs[i], expectBlock(7, 256)) {
			t.Fatalf("duplicate slot %d wrong", i)
		}
	}
	if d := c.Stats(); d.Misses != 1 {
		t.Fatalf("duplicate batch fetched %d times, want 1", d.Misses)
	}
}

// TestWriteBlocksReadYourWrites: a write batch must be visible to subsequent
// reads (cached) and survive Flush to the device.
func TestWriteBlocksReadYourWrites(t *testing.T) {
	store := fillStore(t, 64, 256)
	c := New(store, 16)
	ns := []int64{9, 3, 30}
	bufs := make([][]byte, len(ns))
	for i := range ns {
		bufs[i] = bytes.Repeat([]byte{byte(0xC0 + i)}, 256)
	}
	if err := c.WriteBlocks(ns, bufs); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	for i, n := range ns {
		if err := c.ReadBlock(n, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bufs[i]) {
			t.Fatalf("read-your-writes failed for block %d", n)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		if err := store.ReadBlock(n, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bufs[i]) {
			t.Fatalf("block %d not flushed", n)
		}
	}
}

// TestSingleflightConcurrentMisses: N concurrent cold reads of one block
// must produce one device fetch; the waiters are served from the cache.
func TestSingleflightConcurrentMisses(t *testing.T) {
	store := fillStore(t, 64, 256)
	c := New(store, 16)
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 256)
			if err := c.ReadBlock(33, buf); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, expectBlock(33, 256)) {
				errs <- fmt.Errorf("corrupt concurrent read")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d device fetches for one block, want 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits != readers-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, readers-1)
	}
}

// gatedStore delays reads of one block until released, so tests can hold a
// miss fetch in flight deterministically.
type gatedStore struct {
	*vdisk.MemStore
	gate    chan struct{} // closed to release
	entered chan struct{} // signaled when the gated read begins
	block   int64
}

func (g *gatedStore) ReadBlock(n int64, buf []byte) error {
	if n == g.block {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.MemStore.ReadBlock(n, buf)
}

// TestWriteDuringFetchWins: a WriteBlock that lands while a miss fetch for
// the same block is in flight must win — the reader returns the written
// data, and the stale device bytes never enter the cache.
func TestWriteDuringFetchWins(t *testing.T) {
	mem := fillStore(t, 64, 256)
	gs := &gatedStore{MemStore: mem, gate: make(chan struct{}), entered: make(chan struct{}, 1), block: 21}
	c := New(gs, 16)

	readDone := make(chan []byte, 1)
	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 256)
		if err := c.ReadBlock(21, buf); err != nil {
			readErr <- err
			return
		}
		readDone <- buf
	}()
	<-gs.entered // fetch is now parked inside the device read

	want := bytes.Repeat([]byte{0x5A}, 256)
	if err := c.WriteBlock(21, want); err != nil {
		t.Fatal(err)
	}
	close(gs.gate) // release the fetch

	select {
	case err := <-readErr:
		t.Fatal(err)
	case got := <-readDone:
		if !bytes.Equal(got, want) {
			t.Fatal("reader returned stale pre-write data")
		}
	}
	// The cache must still serve the written data.
	got := make([]byte, 256)
	if err := c.ReadBlock(21, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stale fetch clobbered the cached write")
	}
}

// TestBatchPassThroughAndWriteThrough: a cap-0 cache keeps synchronous
// device semantics on the batch paths. The write-through case went with the
// write-through mode; write-back is now the only write mode.
func TestBatchPassThroughAndWriteThrough(t *testing.T) {
	t.Run("passthrough", func(t *testing.T) {
		store := fillStore(t, 64, 256)
		c := New(store, 0)
		ns := []int64{4, 2}
		w := [][]byte{bytes.Repeat([]byte{1}, 256), bytes.Repeat([]byte{2}, 256)}
		if err := c.WriteBlocks(ns, w); err != nil {
			t.Fatal(err)
		}
		// The device already holds the data, no Flush needed.
		got := make([]byte, 256)
		for i, n := range ns {
			if err := store.ReadBlock(n, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, w[i]) {
				t.Fatalf("block %d not on device", n)
			}
		}
		r := [][]byte{make([]byte, 256), make([]byte, 256)}
		if err := c.ReadBlocks(ns, r); err != nil {
			t.Fatal(err)
		}
		for i := range ns {
			if !bytes.Equal(r[i], w[i]) {
				t.Fatal("batch read wrong")
			}
		}
	})
}
