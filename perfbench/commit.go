package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// commit is stegdb-commit: one partitioned stegdb table with its hash index,
// many more rows than pager frames, on a cached volume whose store is a real
// file, so every block is a pread or pwrite through the OS page cache and no
// latency is emulated. Each client owns every clients-th row and draws its
// rows Zipf-skewed; an operation is a replacing Put (40%), a Get (40%), a
// Delete plus re-Put (10%) or a snapshot Range over about 32 rows of either
// client (10%). Each client calls Sync after one in syncEvery of its writes,
// so group commit coalesces the two clients' barriers. It is the only
// workload that runs the pager, the B-link tree, the hash index and the WAL.
type commit struct {
	e       env
	z       commitSizes
	path    string
	v       *volume
	view    *stegfs.HiddenView
	tview   *tracedView // non-nil when traced
	pt      *stegdb.PartitionedTable
	keys    [][]byte
	vals    [][]byte // the model: each row's expected value
	own     [][]int  // per client: its rows, hottest first
	zipf    []*rand.Zipf
	syncDue []bool // per client: Sync is the next operation
	ver     []int  // per client: values written
}

type commitSizes struct {
	volBlocks   int64
	cacheBlocks int
	parts       int
	buckets     int
	frames      int // pager frames per partition
	rows        int
	rangeRows   int
	syncEvery   int
}

var (
	commitFull  = commitSizes{volBlocks: 1 << 15, cacheBlocks: 1 << 13, parts: 4, buckets: 256, frames: 64, rows: 20000, rangeRows: 32, syncEvery: 4}
	commitSmall = commitSizes{volBlocks: 1 << 14, cacheBlocks: 1 << 11, parts: 2, buckets: 32, frames: 16, rows: 2000, rangeRows: 32, syncEvery: 8}
)

const (
	commitUID   = "db"
	commitTable = "bench.db"
	zipfS       = 1.1
)

func newCommit(e env) *commit {
	z := commitFull
	if e.small {
		z = commitSmall
	}
	return &commit{e: e, z: z}
}

func (w *commit) vol() *volume { return w.v }

func (w *commit) setup(tr *tracer) error {
	w.path = filepath.Join(w.e.dir, fmt.Sprintf("stegdb-%d.img", os.Getpid()))
	store, err := vdisk.CreateFileStore(w.path, w.z.volBlocks, blockSize)
	if err != nil {
		return err
	}
	if w.v, err = formatVolume(store, tr, volumeParams(w.e.seed, 2, 16<<10), stegfs.WithCache(w.z.cacheBlocks)); err != nil {
		_ = store.Close() // the format error is the one to report
		return err
	}
	w.view = w.v.fs.NewHiddenView(commitUID)
	var view stegdb.View = w.view
	if tr != nil {
		view = &tracedView{v: w.view, t: tr}
	}
	if w.pt, err = stegdb.CreatePartitionedTable(view, commitTable, w.z.parts, true, w.z.buckets); err != nil {
		return err
	}
	w.pt.SetPageCacheSize(w.z.frames)

	rng := rand.New(rand.NewPCG(uint64(w.e.seed), 0))
	w.own = make([][]int, w.e.clients)
	for i := 0; i < w.z.rows; i++ {
		key := []byte(fmt.Sprintf("r%07d", i))
		val := rowValue(rng, key, 0)
		if err := w.pt.Put(key, val); err != nil {
			return err
		}
		w.keys = append(w.keys, key)
		w.vals = append(w.vals, val)
		w.own[i%w.e.clients] = append(w.own[i%w.e.clients], i)
		if i%2048 == 2047 {
			if err := w.pt.Sync(); err != nil {
				return err
			}
		}
	}
	for _, own := range w.own {
		rng.Shuffle(len(own), func(a, b int) { own[a], own[b] = own[b], own[a] })
	}
	w.zipf = make([]*rand.Zipf, w.e.clients)
	w.syncDue = make([]bool, w.e.clients)
	w.ver = make([]int, w.e.clients)
	return w.pt.Sync()
}

// rowValue is key|version|filler, 48 to 160 bytes, so any row read back names
// the key it belongs to.
func rowValue(rng *rand.Rand, key []byte, version int) []byte {
	v := fmt.Appendf(nil, "%s|%08d|", key, version)
	for n := 48 + rng.IntN(113); len(v) < n; {
		v = append(v, 'a'+byte(rng.IntN(26)))
	}
	return v
}

func (w *commit) op(c *client) error {
	if w.syncDue[c.id] {
		w.syncDue[c.id] = false
		t0 := c.begin(kStegdbSync)
		err := w.pt.Sync()
		c.end(classSync, t0)
		if err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		return nil
	}
	if w.zipf[c.id] == nil {
		w.zipf[c.id] = rand.NewZipf(c.rng, zipfS, 1, uint64(len(w.own[c.id])-1))
	}
	i := w.own[c.id][w.zipf[c.id].Uint64()]
	switch p := c.rng.IntN(100); {
	case p < 40:
		return w.put(c, i, kStegdbPut)
	case p < 80:
		return w.get(c, i)
	case p < 90:
		return w.put(c, i, kStegdbDelPut)
	default:
		return w.scan(c)
	}
}

// put replaces row i's value, with a Delete first for kStegdbDelPut.
func (w *commit) put(c *client, i int, k kind) error {
	w.ver[c.id]++
	val := rowValue(c.rng, w.keys[i], w.ver[c.id])
	t0 := c.begin(k)
	var err error
	if k == kStegdbDelPut {
		var found bool
		if found, err = w.pt.Delete(w.keys[i]); err == nil && !found {
			err = fmt.Errorf("row missing before delete")
		}
	}
	if err == nil {
		err = w.pt.Put(w.keys[i], val)
	}
	c.end(classWrite, t0)
	if err != nil {
		return fmt.Errorf("%s %s: %w", kinds[k].name, w.keys[i], err)
	}
	// A Sync follows a write with probability 1/syncEvery. A fixed count
	// would let the two clients fall into step, with their Syncs always
	// coalescing or never, and a run would measure whichever it fell into.
	w.syncDue[c.id] = c.rng.IntN(w.z.syncEvery) == 0
	c.moved(0, len(w.keys[i])+len(val))
	w.vals[i] = val
	return nil
}

func (w *commit) get(c *client, i int) error {
	t0 := c.begin(kStegdbGet)
	v, ok, err := w.pt.Get(w.keys[i])
	c.end(classRead, t0)
	if err != nil || !ok {
		return fmt.Errorf("get %s: found=%v err=%v", w.keys[i], ok, err)
	}
	c.moved(len(w.keys[i])+len(v), 0)
	if !bytes.Equal(v, w.vals[i]) {
		return fmt.Errorf("get %s returned a stale or wrong value", w.keys[i])
	}
	return nil
}

// scan runs a snapshot Range over rangeRows consecutive rows of both clients.
// Rows are checked for order and for naming their key; the client's own rows,
// which nothing else writes, must match the model exactly.
func (w *commit) scan(c *client) error {
	lo := c.rng.IntN(len(w.keys))
	hi := min(lo+w.z.rangeRows, len(w.keys))
	hiKey := []byte("r~")
	if hi < len(w.keys) {
		hiKey = w.keys[hi]
	}
	var bad error
	prev, own, read := -1, 0, 0
	t0 := c.begin(kStegdbRange)
	err := w.pt.Range(w.keys[lo], hiKey, func(k, v []byte) bool {
		read += len(k) + len(v)
		i, perr := strconv.Atoi(string(k[1:]))
		switch {
		case perr != nil || i <= prev || i < lo || i >= hi:
			bad = fmt.Errorf("range [%d,%d) returned key %q after row %d", lo, hi, k, prev)
		case len(v) <= len(k) || !bytes.HasPrefix(v, k) || v[len(k)] != '|':
			bad = fmt.Errorf("range returned %q for key %q", v, k)
		case i%w.e.clients == c.id && !bytes.Equal(v, w.vals[i]):
			bad = fmt.Errorf("range returned a stale value for own key %q", k)
		}
		if i%w.e.clients == c.id {
			own++
		}
		prev = i
		return bad == nil
	})
	c.end(classOther, t0)
	c.moved(read, 0)
	if err == nil {
		err = bad
	}
	if err == nil {
		want := 0
		for i := lo; i < hi; i++ {
			if i%w.e.clients == c.id {
				want++
			}
		}
		if own != want {
			err = fmt.Errorf("range [%d,%d) returned %d of the client's rows, want %d", lo, hi, own, want)
		}
	}
	if err != nil {
		return fmt.Errorf("range: %w", err)
	}
	return nil
}

func (w *commit) space() (occupied, live, rows int64, err error) {
	blocks, err := w.view.OccupiedBlocks()
	for i := range w.keys {
		live += int64(len(w.keys[i]) + len(w.vals[i]))
	}
	return blocks * blockSize, live, int64(len(w.keys)), err
}

// verify checks the table in place (Check, Rows), closes the table and the
// volume, reopens both from the file and compares every row with the model,
// then runs the offline checker over the volume and the table. Each row that
// differs, and each failed check, is one failure.
func (w *commit) verify() (checked, failed int64, err error) {
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		failed++
	}
	checked += 2
	if err := w.pt.Check(); err != nil {
		bad("table check: %v", err)
	}
	if rows, err := w.pt.Rows(); err != nil || rows != int64(len(w.keys)) {
		bad("table holds %d rows (err %v), want %d", rows, err, len(w.keys))
	}
	pt, fs := w.pt, w.v.fs
	w.pt, w.v.fs = nil, nil
	if err := pt.Close(); err != nil {
		return checked, failed, fmt.Errorf("close table: %w", err)
	}
	if err := fs.Close(); err != nil {
		return checked, failed, fmt.Errorf("close volume: %w", err)
	}
	if err := w.v.store.Close(); err != nil {
		return checked, failed, err
	}
	store, err := vdisk.OpenFileStore(w.path, blockSize)
	if err != nil {
		return checked, failed, err
	}
	w.v.store = store
	fs2, err := stegfs.Mount(store)
	if err != nil {
		return checked, failed, fmt.Errorf("remount: %w", err)
	}
	view := fs2.NewHiddenView(commitUID)
	if _, err := stegdb.CheckAny(view, view.Adopt, commitTable); err != nil {
		return checked, failed, fmt.Errorf("reopen: %w", err)
	}
	pt2, err := stegdb.OpenPartitionedTable(view, commitTable)
	if err != nil {
		return checked, failed, fmt.Errorf("reopen: %w", err)
	}
	next := 0
	err = pt2.Scan(func(k, v []byte) bool {
		checked++
		if next >= len(w.keys) || !bytes.Equal(k, w.keys[next]) || !bytes.Equal(v, w.vals[next]) {
			bad("row %d after reopen: key %q differs from the model", next, k)
			return false
		}
		next++
		return true
	})
	if err != nil {
		return checked, failed, fmt.Errorf("scan after reopen: %w", err)
	}
	if next != len(w.keys) {
		checked++
		bad("reopened table holds %d rows in order, want %d", next, len(w.keys))
	}
	rep, err := stegfs.Check(store, stegfs.CheckOptions{
		Tables: []stegfs.TableRef{{UID: commitUID, Name: commitTable}},
		CheckTable: func(v *stegfs.HiddenView, name string) ([]string, error) {
			return stegdb.CheckAny(v, v.Adopt, name)
		},
	})
	if err != nil {
		return checked, failed, fmt.Errorf("check: %w", err)
	}
	checked++
	for _, e := range rep.Errors {
		bad("check: %s", e)
	}
	return checked, failed, nil
}

func (w *commit) close() {
	if w.path != "" {
		defer os.Remove(w.path)
	}
	if w.v == nil {
		return
	}
	if w.pt != nil {
		_ = w.pt.Close() // only reached when the run failed before verify
	}
	if w.v.fs != nil {
		_ = w.v.fs.Close()
	}
	_ = w.v.store.Close()
}
