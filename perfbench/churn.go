package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// churn is hidden-churn-cold: the paper's disk-bound regime. Hidden files
// four times the block cache sit on a memory store under a vdisk.Disk that
// sleeps a fixed share of each request's simulated service time. Each client
// owns its own files and mixes partial ReadAt (50%), in-place 4 KB WriteAt
// (35%) and delete plus re-create of a small file (15%); every syncEvery-th
// operation slot runs TickDummies and then FS.Sync. Write-behind is on, so
// the flusher, the elevator, Disk batching and the seek model all run, and
// reads and writes compete for the same cache.
type churn struct {
	e     env
	z     churnSizes
	v     *volume
	view  *stegfs.HiddenView
	names []string
	data  [][]byte // the model: each file's expected contents
	big   [][]int  // per client: the big files it reads and writes
	small [][]int  // per client: the small files it deletes and re-creates
	slots []int    // per client: operation slots run
}

type churnSizes struct {
	volBlocks          int64
	cacheBlocks        int
	writeBehind        int
	bigFiles           int
	bigMin, bigMax     int64
	smallFiles         int // per client
	smallMin, smallMax int64
	syncEvery          int
	emulate            float64 // share of simulated service time slept
}

var (
	churnFull = churnSizes{
		volBlocks: 1 << 16, cacheBlocks: 1 << 12, writeBehind: 256,
		bigFiles: 16, bigMin: 768 << 10, bigMax: 1280 << 10,
		smallFiles: 8, smallMin: 8 << 10, smallMax: 32 << 10,
		syncEvery: 32, emulate: 0.02,
	}
	churnSmall = churnSizes{
		volBlocks: 1 << 14, cacheBlocks: 1 << 9, writeBehind: 1 << 7,
		bigFiles: 4, bigMin: 128 << 10, bigMax: 256 << 10,
		smallFiles: 2, smallMin: 8 << 10, smallMax: 16 << 10,
		syncEvery: 8, emulate: 0,
	}
)

const churnUID = "churn"

func newChurn(e env) *churn {
	z := churnFull
	if e.small {
		z = churnSmall
	}
	return &churn{e: e, z: z}
}

func (w *churn) vol() *volume { return w.v }

func (w *churn) setup(tr *tracer) error {
	return w.setupWith(tr, stegfs.WithWriteBehind(w.z.writeBehind))
}

// setupWith formats with the given write-behind option; the fidelity test
// passes a synchronous one so that runs replay exactly.
func (w *churn) setupWith(tr *tracer, writeBehind stegfs.Option) error {
	store, err := vdisk.NewMemStore(w.z.volBlocks, blockSize)
	if err != nil {
		return err
	}
	w.v, err = formatVolume(store, tr, volumeParams(w.e.seed, 4, 16<<10),
		stegfs.WithCache(w.z.cacheBlocks), stegfs.WithCachePolicy("2q"), writeBehind)
	if err != nil {
		return err
	}
	w.view = w.v.fs.NewHiddenView(churnUID)
	w.big = make([][]int, w.e.clients)
	w.small = make([][]int, w.e.clients)
	w.slots = make([]int, w.e.clients)
	rng := rand.New(rand.NewPCG(uint64(w.e.seed), 0))
	add := func(name string, size int64, owner [][]int, c int) error {
		data := content(int(size), w.e.seed, uint64(len(w.names)))
		if err := w.view.Create(name, data); err != nil {
			return err
		}
		owner[c] = append(owner[c], len(w.names))
		w.names = append(w.names, name)
		w.data = append(w.data, data)
		return nil
	}
	for i := 0; i < w.z.bigFiles; i++ {
		if err := add(fmt.Sprintf("big-%03d", i), w.z.bigMin+rng.Int64N(w.z.bigMax-w.z.bigMin+1), w.big, i%w.e.clients); err != nil {
			return err
		}
	}
	for c := 0; c < w.e.clients; c++ {
		for i := 0; i < w.z.smallFiles; i++ {
			if err := add(fmt.Sprintf("small-%d-%03d", c, i), w.z.smallMin+rng.Int64N(w.z.smallMax-w.z.smallMin+1), w.small, c); err != nil {
				return err
			}
		}
	}
	if err := w.v.fs.Sync(); err != nil {
		return err
	}
	w.v.disk.EmulateLatency(w.z.emulate)
	return nil
}

func (w *churn) op(c *client) error {
	w.slots[c.id]++
	if w.slots[c.id]%w.z.syncEvery == 0 {
		t0 := c.begin(kStegfsTick)
		err := w.v.fs.TickDummies()
		c.end(classOther, t0)
		if err != nil {
			return fmt.Errorf("tick dummies: %w", err)
		}
		t0 = c.begin(kStegfsSync)
		err = w.v.fs.Sync()
		c.end(classSync, t0)
		if err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		return nil
	}
	switch p := c.rng.IntN(100); {
	case p < 50:
		return w.read(c)
	case p < 85:
		return w.write(c)
	default:
		return w.recreate(c)
	}
}

// read is a partial ReadAt of 4 or 16 KB at a 1 KB-aligned offset.
func (w *churn) read(c *client) error {
	f := w.big[c.id][c.rng.IntN(len(w.big[c.id]))]
	size := 4 << 10
	if c.rng.IntN(2) == 1 {
		size = 16 << 10
	}
	off := c.rng.IntN((len(w.data[f])-size)/blockSize+1) * blockSize
	p := c.scratch(size)
	t0 := c.begin(kStegfsReadAt)
	n, err := w.view.ReadAt(w.names[f], p, int64(off))
	c.end(classRead, t0)
	if err != nil {
		return fmt.Errorf("read %s@%d: %w", w.names[f], off, err)
	}
	c.moved(n, 0)
	if !bytes.Equal(p, w.data[f][off:off+size]) {
		return fmt.Errorf("read %s@%d+%d returned wrong bytes", w.names[f], off, size)
	}
	return nil
}

// write overwrites 4 KB in place at a 4 KB-aligned offset.
func (w *churn) write(c *client) error {
	f := w.big[c.id][c.rng.IntN(len(w.big[c.id]))]
	const size = 4 << 10
	off := c.rng.IntN((len(w.data[f])-size)/size+1) * size
	p := c.scratch(size)
	fillRand(c.rng, p)
	t0 := c.begin(kStegfsWriteAt)
	n, err := w.view.WriteAt(w.names[f], p, int64(off))
	c.end(classWrite, t0)
	if err != nil {
		return fmt.Errorf("write %s@%d: %w", w.names[f], off, err)
	}
	c.moved(0, n)
	copy(w.data[f][off:], p)
	return nil
}

// recreate deletes one of the client's small files and creates it again
// with fresh contents of a fresh size.
func (w *churn) recreate(c *client) error {
	f := w.small[c.id][c.rng.IntN(len(w.small[c.id]))]
	data := make([]byte, w.z.smallMin+c.rng.Int64N(w.z.smallMax-w.z.smallMin+1))
	fillRand(c.rng, data)
	t0 := c.begin(kStegfsRecreate)
	err := w.view.Delete(w.names[f])
	if err == nil {
		err = w.view.Create(w.names[f], data)
	}
	c.end(classWrite, t0)
	if err != nil {
		return fmt.Errorf("re-create %s: %w", w.names[f], err)
	}
	c.moved(0, len(data))
	w.data[f] = data
	return nil
}

func (w *churn) space() (occupied, live, rows int64, err error) {
	blocks, err := w.view.OccupiedBlocks()
	for _, d := range w.data {
		live += int64(len(d))
	}
	return blocks * blockSize, live, 0, err
}

// verify closes the volume, mounts the bare store again, compares every file
// with the model and runs the offline checker. Each file that differs, and
// each checker finding, is one failure.
func (w *churn) verify() (checked, failed int64, err error) {
	fs := w.v.fs
	w.v.fs = nil
	if err := fs.Close(); err != nil {
		return 0, 0, fmt.Errorf("close: %w", err)
	}
	fs2, err := stegfs.Mount(w.v.store)
	if err != nil {
		return 0, 0, fmt.Errorf("remount: %w", err)
	}
	view := fs2.NewHiddenView(churnUID)
	for i, name := range w.names {
		checked++
		got := make([]byte, len(w.data[i]))
		err := view.Adopt(name)
		if err == nil {
			_, err = view.ReadAt(name, got, 0)
		}
		if err != nil || !bytes.Equal(got, w.data[i]) {
			fmt.Fprintf(os.Stderr, "perfbench: %s after remount: err=%v, contents match=%v\n", name, err, bytes.Equal(got, w.data[i]))
			failed++
		}
	}
	rep, err := stegfs.Check(w.v.store, stegfs.CheckOptions{ViewFiles: map[string][]string{churnUID: w.names}})
	if err != nil {
		return checked, failed, fmt.Errorf("check: %w", err)
	}
	checked++
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check:", e)
		failed++
	}
	return checked, failed, nil
}

func (w *churn) close() {
	if w.v != nil && w.v.fs != nil {
		_ = w.v.fs.Close() // only reached when the run failed before verify
	}
}
