package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// blockSize is the volume block size of every workload (the paper's 1 KB).
const blockSize = 1 << 10

// hotRead is hidden-read-hot: seeded hidden files that together fill at most
// half the block cache, written, synced and read once before timing, then
// read by ReadAt calls of 4 KB and 64 KB in a 3:1 ratio at seeded 4 KB-aligned
// offsets. The store sits on memory with no latency emulation and every read
// hits the cache, so the time is stegfs's CPU path (seal/open, the object
// lock, the header and p-tree walk) plus the cache hit path.
type hotRead struct {
	e     env
	z     hotSizes
	v     *volume
	view  *stegfs.HiddenView
	names []string
	data  [][]byte
}

type hotSizes struct {
	volBlocks        int64
	cacheBlocks      int
	files            int
	minSize, maxSize int64
}

var (
	hotFull  = hotSizes{volBlocks: 1 << 15, cacheBlocks: 1 << 12, files: 16, minSize: 64 << 10, maxSize: 128 << 10}
	hotSmall = hotSizes{volBlocks: 1 << 13, cacheBlocks: 1 << 11, files: 4, minSize: 64 << 10, maxSize: 128 << 10}
)

const hotAlign = 4 << 10

func newHotRead(e env) *hotRead {
	z := hotFull
	if e.small {
		z = hotSmall
	}
	return &hotRead{e: e, z: z}
}

func (w *hotRead) vol() *volume { return w.v }

func (w *hotRead) setup(tr *tracer) error {
	if int64(w.z.files)*w.z.maxSize > int64(w.z.cacheBlocks)*blockSize/2 {
		return fmt.Errorf("hot files may exceed half the cache")
	}
	store, err := vdisk.NewMemStore(w.z.volBlocks, blockSize)
	if err != nil {
		return err
	}
	if w.v, err = formatVolume(store, tr, volumeParams(w.e.seed, 4, 32<<10), stegfs.WithCache(w.z.cacheBlocks)); err != nil {
		return err
	}
	w.view = w.v.fs.NewHiddenView("hot")
	rng := rand.New(rand.NewPCG(uint64(w.e.seed), 0))
	for i := 0; i < w.z.files; i++ {
		name := fmt.Sprintf("hot-%03d", i)
		data := content(int(w.z.minSize+rng.Int64N(w.z.maxSize-w.z.minSize+1)), w.e.seed, uint64(i))
		if err := w.view.Create(name, data); err != nil {
			return err
		}
		w.names = append(w.names, name)
		w.data = append(w.data, data)
	}
	if err := w.v.fs.Sync(); err != nil {
		return err
	}
	for i, name := range w.names {
		got := make([]byte, len(w.data[i]))
		if _, err := w.view.ReadAt(name, got, 0); err != nil {
			return err
		}
		if !bytes.Equal(got, w.data[i]) {
			return fmt.Errorf("warm-up read of %s differs from what was written", name)
		}
	}
	return nil
}

func (w *hotRead) op(c *client) error {
	f := c.rng.IntN(len(w.names))
	size := 4 << 10
	if c.rng.IntN(4) == 3 {
		size = 64 << 10
	}
	off := c.rng.IntN((len(w.data[f])-size)/hotAlign+1) * hotAlign
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

func (w *hotRead) space() (occupied, live, rows int64, err error) {
	blocks, err := w.view.OccupiedBlocks()
	for _, d := range w.data {
		live += int64(len(d))
	}
	return blocks * blockSize, live, 0, err
}

// verify has nothing left to check: every read was compared as it returned.
func (w *hotRead) verify() (checked, failed int64, err error) { return 0, 0, nil }

func (w *hotRead) close() {
	if w.v != nil {
		_ = w.v.fs.Close() // a read-only window leaves nothing to persist
	}
}

// content returns n bytes from a generator keyed by seed and tag, so a file's
// expected contents follow from the run's inputs.
func content(n int, seed int64, tag uint64) []byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], uint64(seed))
	binary.LittleEndian.PutUint64(key[8:], tag)
	b := make([]byte, n)
	_, _ = rand.NewChaCha8(key).Read(b) // ChaCha8.Read never fails
	return b
}

// fillRand overwrites p with bytes from rng.
func fillRand(rng *rand.Rand, p []byte) {
	for i := 0; i < len(p); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Uint64())
		copy(p[i:], w[:])
	}
}
