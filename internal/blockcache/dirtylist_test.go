package blockcache

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stegfs/internal/vdisk"
)

// checkDirtyList asserts the dirty-list invariant: the list holds exactly
// the resident entries with e.dirty set, each at its own dirtyPos.
func checkDirtyList(t *testing.T, c *Cache, step int, op string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.dirtyList {
		if !e.dirty || e.dirtyPos != i || c.entries[e.block] != e {
			t.Fatalf("step %d (%s): dirtyList[%d] = block %d dirty=%v pos=%d resident=%v",
				step, op, i, e.block, e.dirty, e.dirtyPos, c.entries[e.block] == e)
		}
	}
	n := 0
	for _, e := range c.entries {
		if e.dirty {
			n++
		}
	}
	if n != len(c.dirtyList) {
		t.Fatalf("step %d (%s): %d dirty entries, dirty list holds %d", step, op, n, len(c.dirtyList))
	}
}

// gatedFaultDev is a BatchDevice over a FaultStore whose batch writes can be
// parked on a gate, so a test can act while a background run is in flight.
type gatedFaultDev struct {
	*vdisk.FaultStore
	mu      sync.Mutex
	gate    chan struct{} // nil = ungated
	entered chan struct{} // signaled when a gated batch arrives
}

func (d *gatedFaultDev) ReadBlocks(ns []int64, bufs [][]byte) error {
	for i, n := range ns {
		if err := d.ReadBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *gatedFaultDev) WriteBlocks(ns []int64, bufs [][]byte) error {
	d.mu.Lock()
	gate := d.gate
	d.mu.Unlock()
	if gate != nil {
		d.entered <- struct{}{}
		<-gate
	}
	for i, n := range ns {
		if err := d.WriteBlock(n, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestPipelineDirtyListInvariant drives a small write-behind cache through a
// seeded random mix of writes, batch writes, miss inserts, dirty evictions
// (some failing their write-back), write-wins re-dirties during a parked
// background flight, Flush and Invalidate, and checks the dirty list after
// every step. Every successful Flush also checks the device against a model
// of the last value written to each block.
func TestPipelineDirtyListInvariant(t *testing.T) {
	const (
		blocks = 96
		bs     = 16
	)
	mem, err := vdisk.NewMemStore(blocks, bs)
	if err != nil {
		t.Fatal(err)
	}
	dev := &gatedFaultDev{FaultStore: vdisk.NewFaultStore(mem, 7), entered: make(chan struct{}, 1)}
	c, err := NewWithOptions(dev, Options{Capacity: 24, WriteBehind: 8, FlushWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.StopFlushers(); err != nil {
			t.Error(err)
		}
	}()

	rng := rand.New(rand.NewSource(1))
	model := map[int64][]byte{}
	var seq byte
	write := func(n int64) []byte {
		seq++
		buf := bytes.Repeat([]byte{seq}, bs)
		model[n] = buf
		return buf
	}
	// flushed runs barriers until one succeeds, then requires a device
	// that matches the model.
	flushed := func(step int) {
		t.Helper()
		flushClean(t, c)
		buf := make([]byte, bs)
		for n, want := range model {
			if err := mem.ReadBlock(n, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("step %d: block %d on device = %v, want %v", step, n, buf[0], want[0])
			}
		}
	}

	for step := 0; step < 3000; step++ {
		var op string
		switch k := rng.Intn(100); {
		case k < 35:
			op = "write"
			n := rng.Int63n(blocks)
			if err := c.WriteBlock(n, write(n)); err != nil {
				t.Fatal(err)
			}
		case k < 50:
			op = "batch write"
			ns := make([]int64, 1+rng.Intn(6))
			bufs := make([][]byte, len(ns))
			for i := range ns {
				ns[i] = rng.Int63n(blocks)
				bufs[i] = write(ns[i])
			}
			if err := c.WriteBlocks(ns, bufs); err != nil {
				t.Fatal(err)
			}
		case k < 70:
			op = "miss insert"
			ns := make([]int64, 1+rng.Intn(4))
			bufs := make([][]byte, len(ns))
			for i := range ns {
				ns[i] = rng.Int63n(blocks)
				bufs[i] = make([]byte, bs)
			}
			if err := c.ReadBlocks(ns, bufs); err != nil {
				t.Fatal(err)
			}
		case k < 80:
			// The next write-back of a random block fails once: when an
			// eviction or a run picks it, the block must stay dirty.
			op = "failing write-back"
			dev.FailNextWrites(rng.Int63n(blocks), 1)
		case k < 85:
			op = "re-dirty in flight"
			redirtyInFlight(t, c, dev, rng, write)
		case k < 95:
			op = "flush"
			flushed(step)
		default:
			op = "invalidate"
			if err := c.Invalidate(); err != nil && !errors.Is(err, vdisk.ErrTransient) {
				t.Fatalf("step %d: Invalidate: %v", step, err)
			}
		}
		checkDirtyList(t, c, step, op)
	}
	dev.Disarm()
	flushed(-1)
	checkDirtyList(t, c, -1, "final flush")
	if d := c.Dirty(); d != 0 {
		t.Fatalf("dirty = %d after the final flush", d)
	}
	st, faults := c.Stats(), dev.Stats()
	if st.Evictions == 0 || st.WriteBehinds == 0 || faults.WriteFaults == 0 {
		t.Fatalf("mix left a transition unexercised: %d evictions, %d write-behind runs, %d failed writes",
			st.Evictions, st.WriteBehinds, faults.WriteFaults)
	}
}

// flushClean runs Flush until it succeeds. Each armed one-shot fault fails
// one write and each incident surfaces once, so only transient errors are
// tolerated, and only a bounded number of them.
func flushClean(t *testing.T, c *Cache) {
	t.Helper()
	for tries := 0; ; tries++ {
		err := c.Flush()
		if err == nil {
			return
		}
		if !errors.Is(err, vdisk.ErrTransient) || tries == 100 {
			t.Fatalf("Flush: %v", err)
		}
	}
}

// redirtyInFlight parks a background write-behind run on the device gate,
// rewrites one of its staged blocks (write-wins: the block must stay
// dirty), checks the dirty list mid-flight, then releases the run.
func redirtyInFlight(t *testing.T, c *Cache, dev *gatedFaultDev, rng *rand.Rand, write func(int64) []byte) {
	t.Helper()
	dev.Disarm()
	flushClean(t, c)
	gate := make(chan struct{})
	dev.mu.Lock()
	dev.gate = gate
	dev.mu.Unlock()
	// Past the high-water mark with distinct blocks wakes the flusher.
	base := rng.Int63n(96 - 12)
	for n := base; n < base+12; n++ {
		if err := c.WriteBlock(n, write(n)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-dev.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("background run never reached the device")
	}
	dev.mu.Lock()
	dev.gate = nil // later batches (the barrier's) pass straight through
	dev.mu.Unlock()
	var staged *entry
	c.mu.Lock()
	for _, e := range c.dirtyList {
		if e.flushing {
			staged = e
			break
		}
	}
	c.mu.Unlock()
	if staged == nil {
		t.Fatal("parked run staged no dirty entry")
	}
	fresh := write(staged.block)
	if err := c.WriteBlock(staged.block, fresh); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	kept := staged.dirty && staged.flushing
	c.mu.Unlock()
	if !kept {
		t.Fatal("block re-dirtied mid-flight left the dirty list")
	}
	checkDirtyList(t, c, -1, "mid-flight")
	close(gate)
	waitUntil(t, func() bool { return c.FlushInFlight() == 0 })
	// The stale flight must not have cleaned the block: the next barrier
	// writes the fresh data.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(fresh))
	if err := dev.ReadBlock(staged.block, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("block %d re-dirtied mid-flight: device holds %v, want %v", staged.block, got[0], fresh[0])
	}
}

// BenchmarkFlushSparseDirty prices a barrier over a full 8192-block cache
// holding 32 dirty blocks — the shape of a stegdb commit's FS.Sync. The
// dirty list makes it O(dirty), independent of the resident set.
func BenchmarkFlushSparseDirty(b *testing.B) {
	const capacity, dirty, bs = 8192, 32, 64
	store, err := vdisk.NewMemStore(2*capacity, bs)
	if err != nil {
		b.Fatal(err)
	}
	c := New(store, capacity)
	buf := make([]byte, bs)
	for n := int64(0); n < capacity; n++ {
		if err := c.WriteBlock(n, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for b.Loop() {
		for i := 0; i < dirty; i++ {
			if err := c.WriteBlock(rng.Int63n(capacity), buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
