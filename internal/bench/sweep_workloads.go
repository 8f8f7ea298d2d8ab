package bench

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/workload"
)

// The five workloads of the concurrency sweep. Each constructor returns a
// Workload whose hooks share the state its Populate step builds.

// Shape of the read workload (A5). The hot set (plus headers and pointer
// blocks) fits the cache; the cold set cycles far beyond it, so every cold
// read pays emulated device latency. With the default 256 ops the 64 cold
// reads touch the 64 cold files exactly once each, so the window's miss set
// — and with it the simulated-disk cost — is identical at every level no
// matter how the goroutines interleave.
const (
	concCacheBlocks = 2048
	concHotFiles    = 12
	concHotBlocks   = 32
	concColdFiles   = 64
	concColdBlocks  = 64
	concPlainFiles  = 6
	concFillFiles   = 8 // warm-up scan set; never read inside the window
	concFillBlocks  = 64
)

// ReadWorkload is ablation A5, the parallel read path: ops reads (default
// 256) over one shared volume behind a 2Q cache. Per 8 ops: 5 hot hidden
// reads (cache hits), 2 cold hidden reads (emulated device latency) and 1
// plain file read. Before each level the cache is dropped and re-warmed to
// the same steady state. Under the old whole-FS mutex the device waits
// serialized however many readers piled on; with per-object locks and
// non-blocking cache miss fetches, readers of distinct objects overlap them.
func ReadWorkload(ops int) Workload {
	if ops <= 0 {
		ops = 256
	}
	var (
		fs                        *stegfs.FS
		view                      *stegfs.HiddenView
		hotSpecs, coldSpecs, fill []workload.FileSpec
		hotData, coldData         [][]byte
		plainNames                []string
		plainData                 [][]byte
	)
	return Workload{
		Ops:         ops,
		CacheBlocks: concCacheBlocks,
		Policy:      "2q", // scan-resistant: the cold cycle must not evict the hot set
		Populate: func(cfg Config, f *stegfs.FS) error {
			fs = f
			view = fs.NewHiddenView("conc")
			bs := int64(cfg.BlockSize)
			mkFiles := func(prefix string, count int, blocks int64) ([]workload.FileSpec, [][]byte, error) {
				specs := make([]workload.FileSpec, count)
				payloads := make([][]byte, count)
				for i := range specs {
					specs[i] = workload.FileSpec{Name: fmt.Sprintf("%s%02d", prefix, i), Size: blocks * bs}
					payloads[i] = workload.Payload(specs[i], cfg.Seed)
					if err := view.Create(specs[i].Name, payloads[i]); err != nil {
						return nil, nil, fmt.Errorf("%s: %w", specs[i].Name, err)
					}
				}
				return specs, payloads, nil
			}
			var err error
			if hotSpecs, hotData, err = mkFiles("hot", concHotFiles, concHotBlocks); err != nil {
				return err
			}
			if coldSpecs, coldData, err = mkFiles("cold", concColdFiles, concColdBlocks); err != nil {
				return err
			}
			if fill, _, err = mkFiles("fill", concFillFiles, concFillBlocks); err != nil {
				return err
			}
			plainNames = make([]string, concPlainFiles)
			plainData = make([][]byte, concPlainFiles)
			for i := range plainNames {
				plainNames[i] = fmt.Sprintf("plain%02d", i)
				plainData[i] = workload.Payload(workload.FileSpec{Name: plainNames[i], Size: 8 * bs}, cfg.Seed+3)
				if err := fs.Create(plainNames[i], plainData[i]); err != nil {
					return fmt.Errorf("%s: %w", plainNames[i], err)
				}
			}
			return view.Sync()
		},
		// Reset re-establishes the canonical cache state: hot pass, a
		// filler scan (pushes the hot set out of 2Q's probation FIFO —
		// deliberately NOT the cold set, or whichever cold blocks survived
		// in the FIFO would hand position-dependent free hits to some
		// window schedules), hot pass (the re-reference promotes the hot
		// set into the protected region), plain pass.
		Reset: func() error {
			if err := fs.Cache().Invalidate(); err != nil {
				return err
			}
			for _, specs := range [][]workload.FileSpec{hotSpecs, fill, hotSpecs} {
				for _, s := range specs {
					if _, err := view.Read(s.Name); err != nil {
						return err
					}
				}
			}
			for _, n := range plainNames {
				if _, err := fs.Read(n); err != nil {
					return err
				}
			}
			return nil
		},
		Op: func(i int) error {
			switch {
			case i%8 == 5:
				j := (i / 8) % len(plainNames)
				got, err := fs.Read(plainNames[j])
				if err != nil {
					return fmt.Errorf("plain %s: %w", plainNames[j], err)
				}
				if !bytes.Equal(got, plainData[j]) {
					return fmt.Errorf("plain %s corrupted", plainNames[j])
				}
				return nil
			case i%4 == 3:
				j := (i / 4) % len(coldSpecs)
				return checkRead(view, coldSpecs[j].Name, coldData[j])
			default:
				j := i % len(hotSpecs)
				return checkRead(view, hotSpecs[j].Name, hotData[j])
			}
		},
	}
}

// mutation runs step pos (0..3) of the A6 mutation cycle on one hidden
// object: in-place rewrite, delete, re-create (a fresh uniform allocation),
// and a rewrite back to the canonical content.
func mutation(view *stegfs.HiddenView, name string, pos int, canonical, alt []byte) error {
	switch pos {
	case 0:
		return view.Write(name, alt)
	case 1:
		return view.Delete(name)
	case 2:
		return view.Create(name, alt)
	default:
		return view.Write(name, canonical)
	}
}

// writeObjects creates n hidden objects "w000".. of blocks blocks each with
// their canonical content, and returns that content plus the alternate
// content the mutation cycle rewrites them with.
func writeObjects(cfg Config, view *stegfs.HiddenView, n int, blocks int64) (specs []workload.FileSpec, payloads, alts [][]byte, err error) {
	specs = make([]workload.FileSpec, n)
	payloads = make([][]byte, n)
	alts = make([][]byte, n)
	for i := range specs {
		specs[i] = workload.FileSpec{Name: fmt.Sprintf("w%03d", i), Size: blocks * int64(cfg.BlockSize)}
		payloads[i] = workload.Payload(specs[i], cfg.Seed)
		alts[i] = workload.Payload(specs[i], cfg.Seed+7)
		if err := view.Create(specs[i].Name, payloads[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", specs[i].Name, err)
		}
	}
	return specs, payloads, alts, nil
}

// checkRead reads hidden file name and compares it with want.
func checkRead(view *stegfs.HiddenView, name string, want []byte) error {
	got, err := view.Read(name)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s corrupted", name)
	}
	return nil
}

// verifyFiles reads every spec back and compares it with its payload.
func verifyFiles(view *stegfs.HiddenView, specs []workload.FileSpec, payloads [][]byte) error {
	for i, s := range specs {
		if err := checkRead(view, s.Name, payloads[i]); err != nil {
			return err
		}
	}
	return nil
}

// Shape of the write workload (A6). Ops come in blocks of wcOpsPerObject
// consecutive indexes, all touching one object, so a split into whole tiles
// keeps every object inside one goroutine — concurrent ops always hit
// DISTINCT hidden objects, the regime the sharded allocator is meant to
// scale.
const (
	wcObjects      = 64
	wcOpsPerObject = 4 // rewrite, delete, re-create, rewrite
	wcObjectBlocks = 8 // payload blocks per object
)

// WriteWorkload is ablation A6, the parallel write path: 256 hidden-file
// mutations — the 4-op mutation cycle on each of 64 objects — over one
// shared UNCACHED volume, so every block write waits at the device. Writers
// to distinct objects contend only when their allocations land in the same
// allocation group. Every delete is paired with a re-create at the same
// size, so occupancy — and with uniform placement the expected seek cost —
// is stable across the window and across levels.
func WriteWorkload() Workload {
	var (
		view           *stegfs.HiddenView
		specs          []workload.FileSpec
		payloads, alts [][]byte
	)
	return Workload{
		Ops:  wcObjects * wcOpsPerObject,
		Tile: wcOpsPerObject,
		// Uncached: the sweep prices the write path itself. The cached
		// regime is A7, CachedWriteWorkload.
		Populate: func(cfg Config, fs *stegfs.FS) error {
			view = fs.NewHiddenView("wconc")
			var err error
			specs, payloads, alts, err = writeObjects(cfg, view, wcObjects, wcObjectBlocks)
			return err
		},
		Op: func(i int) error {
			obj := i / wcOpsPerObject
			return mutation(view, specs[obj].Name, i%wcOpsPerObject, payloads[obj], alts[obj])
		},
		Verify: func() error { return verifyFiles(view, specs, payloads) },
	}
}

// Shape of the cached write workload (A7). Ops come in 8-op stripes, each
// pinned to one goroutine: four cold hidden reads (every read file is
// touched exactly once per level, so the window's miss set is identical at
// every level) interleaved with the A6 mutation cycle on the stripe's own
// write object. Reads model the multi-user cover traffic the paper assumes
// runs at full speed; the mutation cycle is the write path under test.
const (
	cwcStripes      = 32 // 8 ops each -> 256 ops per level
	cwcOpsPerStripe = 8
	cwcReadFiles    = cwcStripes * 4 // touched once per level each
	cwcReadBlocks   = 8              // blocks per read file
	cwcWriteBlocks  = 2              // payload blocks per write object

	cwcCacheBlocks  = 4096 // covers the level working set; Reset re-colds it
	cwcWriteBehind  = 128  // high-water: background flushing runs inside the window
	cwcFlushWorkers = 4
)

// CachedWriteWorkload is ablation A7, the cached parallel write path: the
// A6 mutation cycle plus a cold-read stream over one shared volume mounted
// THROUGH the write-back cache with write-behind and the background flush
// pipeline. Before the pipeline every dirty write-back went out one
// synchronous WriteBlock at a time while holding the cache mutex, so cached
// writers — and every reader — stalled behind the device. Now foreground
// writes are absorbed, dirty runs stream out in sorted batches on
// background flushers, and the only foreground waits left are the
// cold-read misses.
//
// Each level starts from an identical cold-cache, fully synced state and
// its window ENDS with FS.Sync, so the window prices the full write-back
// cost of the level's mutations — wall-clock speedup cannot come from
// deferring device work past the measurement.
func CachedWriteWorkload() Workload {
	var (
		fs             *stegfs.FS
		view           *stegfs.HiddenView
		readSpecs      []workload.FileSpec
		writeSpecs     []workload.FileSpec
		payloads, alts [][]byte
	)
	return Workload{
		Ops:          cwcStripes * cwcOpsPerStripe,
		Tile:         cwcOpsPerStripe,
		CacheBlocks:  cwcCacheBlocks,
		WriteBehind:  cwcWriteBehind,
		FlushWorkers: cwcFlushWorkers,
		Populate: func(cfg Config, f *stegfs.FS) error {
			fs = f
			view = fs.NewHiddenView("cwc")
			bs := int64(cfg.BlockSize)
			readSpecs = make([]workload.FileSpec, cwcReadFiles)
			for i := range readSpecs {
				readSpecs[i] = workload.FileSpec{Name: fmt.Sprintf("r%03d", i), Size: cwcReadBlocks * bs}
				if err := view.Create(readSpecs[i].Name, workload.Payload(readSpecs[i], cfg.Seed)); err != nil {
					return fmt.Errorf("%s: %w", readSpecs[i].Name, err)
				}
			}
			var err error
			writeSpecs, payloads, alts, err = writeObjects(cfg, view, cwcStripes, cwcWriteBlocks)
			return err
		},
		Reset: func() error {
			if err := fs.Sync(); err != nil {
				return err
			}
			return fs.Cache().Invalidate()
		},
		// Stripe s owns write object s and the four read files 4s..4s+3;
		// even positions are cold reads, odd positions walk the mutation
		// cycle in order.
		Op: func(i int) error {
			stripe, pos := i/cwcOpsPerStripe, i%cwcOpsPerStripe
			if pos%2 == 0 {
				_, err := view.Read(readSpecs[stripe*4+pos/2].Name)
				return err
			}
			return mutation(view, writeSpecs[stripe].Name, pos/2, payloads[stripe], alts[stripe])
		},
		Barrier: func() error { return fs.Sync() },
		Verify:  func() error { return verifyFiles(view, writeSpecs, payloads) },
	}
}

// kvTable is what the stegdb workloads use of a table; *stegdb.Table and
// *stegdb.PartitionedTable both provide it.
type kvTable interface {
	Put(key, val []byte) error
	Get(key []byte) ([]byte, bool, error)
	Delete(key []byte) (bool, error)
	Range(lo, hi []byte, fn func(key, val []byte) bool) error
	Scan(fn func(key, val []byte) bool) error
	Rows() (int64, error)
	Check() error
	Sync() error
}

// Key space shared by the stegdb workloads. Values are fixed-width so
// replaces never change page layout, and every value embeds its key so torn
// rows are detectable.
const (
	sdbHotKeys  = 64   // "a-ro-*": read-only, warmed, hash-path hits
	sdbRWKeys   = 32   // "b-rw-*": in-cache replace targets + snapshot Range window
	sdbColdKeys = 4096 // cold keys: each access touches a never-warmed page
)

func sdbHotKey(i int) string { return fmt.Sprintf("a-ro-%04d", i%sdbHotKeys) }
func sdbRWKey(i int) string  { return fmt.Sprintf("b-rw-%04d", i%sdbRWKeys) }
func sdbRWVal(k string, i int) []byte {
	return []byte(fmt.Sprintf("%s:%06d", k, i))
}

// sdbPopulate writes the hot and rw rows and, through coldRow, the cold
// rows, then runs the op set once (unmeasured, no emulation) so one-time
// page splits, allocations and file growth happen before any level is
// timed.
func sdbPopulate(tab kvTable, coldRow func(c int) (key, val string), ops int, op func(int) error) error {
	for i := 0; i < sdbHotKeys; i++ {
		k := sdbHotKey(i)
		if err := tab.Put([]byte(k), []byte(k+"=hotrow")); err != nil {
			return err
		}
	}
	for i := 0; i < sdbRWKeys; i++ {
		k := sdbRWKey(i)
		if err := tab.Put([]byte(k), sdbRWVal(k, 0)); err != nil {
			return err
		}
	}
	for c := 0; c < sdbColdKeys; c++ {
		k, v := coldRow(c)
		if err := tab.Put([]byte(k), []byte(v)); err != nil {
			return err
		}
	}
	if err := tab.Sync(); err != nil {
		return err
	}
	for i := 0; i < ops; i++ {
		if err := op(i); err != nil {
			return fmt.Errorf("settle op %d: %w", i, err)
		}
	}
	return tab.Sync()
}

// sdbHotGet reads a hot row through the hash path.
func sdbHotGet(tab kvTable, i int) error {
	k := sdbHotKey(i)
	v, ok, err := tab.Get([]byte(k))
	if err != nil || !ok || string(v) != k+"=hotrow" {
		return fmt.Errorf("hot get %s = %q %v %v", k, v, ok, err)
	}
	return nil
}

// sdbReplace rewrites rw row i in place (tree + hash, in-cache).
func sdbReplace(tab kvTable, row, i int) error {
	k := sdbRWKey(row)
	if err := tab.Put([]byte(k), sdbRWVal(k, i)); err != nil {
		return fmt.Errorf("rw put: %w", err)
	}
	return nil
}

// sdbTransient puts a fresh row and deletes it again through both
// structures.
func sdbTransient(tab kvTable, key string) error {
	if err := tab.Put([]byte(key), []byte("transient-row!")); err != nil {
		return fmt.Errorf("tmp put: %w", err)
	}
	found, err := tab.Delete([]byte(key))
	if err != nil || !found {
		return fmt.Errorf("tmp delete = %v %v", found, err)
	}
	return nil
}

// sdbRangeRW runs a snapshot Range over the rw window, concurrently with
// writers, and requires every rw row present and untorn.
func sdbRangeRW(tab kvTable) error {
	var n int
	err := tab.Range([]byte("b-"), []byte("b-~"), func(k, v []byte) bool {
		ks, vs := string(k), string(v)
		if !strings.HasPrefix(vs, ks+":") || len(vs) != len(ks)+1+6 {
			n = -1 << 20 // torn row; force the count check to fail
			return false
		}
		n++
		return true
	})
	if err != nil {
		return fmt.Errorf("range: %w", err)
	}
	if n != sdbRWKeys {
		return fmt.Errorf("range saw %d rw rows, want %d", n, sdbRWKeys)
	}
	return nil
}

// sdbWarm re-reads the hot and rw keys — their bucket pages, leaves and
// interior descent paths. The cold key space is deliberately left out: it
// is the window's fixed miss set.
func sdbWarm(tab kvTable) error {
	for i := 0; i < sdbHotKeys; i++ {
		if _, _, err := tab.Get([]byte(sdbHotKey(i))); err != nil {
			return err
		}
	}
	for i := 0; i < sdbRWKeys; i++ {
		if _, _, err := tab.Get([]byte(sdbRWKey(i))); err != nil {
			return err
		}
	}
	return nil
}

// sdbCheck is the post-sweep check: the table must come out of the sweep
// fully consistent, with every key still scanning in order (snapshot reads
// share this path).
func sdbCheck(tab kvTable) error {
	want := int64(sdbHotKeys + sdbRWKeys + sdbColdKeys)
	rows, err := tab.Rows()
	if err != nil {
		return err
	}
	if rows != want {
		return fmt.Errorf("table ended with %d rows, want %d", rows, want)
	}
	if err := tab.Check(); err != nil {
		return err
	}
	var keys []string
	if err := tab.Scan(func(k, v []byte) bool { keys = append(keys, string(k)); return true }); err != nil {
		return err
	}
	if !sort.StringsAreSorted(keys) {
		return fmt.Errorf("scan out of order")
	}
	if len(keys) != int(want) {
		return fmt.Errorf("scan saw %d rows, want %d", len(keys), want)
	}
	return nil
}

// Shape of the stegdb workload (A8). The whole database file fits both the
// block cache and the pager page cache, so nothing is evicted mid-window —
// the window's miss set is exactly the deliberately cold bucket pages.
const (
	sdbCacheBlocks = 8192 // block cache: comfortably above the file's blocks
	sdbPageCache   = 1024 // pager page cache frames
	sdbBuckets     = 256  // hash index buckets
)

// StegDBWorkload is ablation A8, the concurrent hidden database: ops
// (default 256) mixed point/range ops over ONE shared hidden table on a
// cached volume. Per 8 ops: 3 hot Gets (hash path, pager-cache hits), 2
// cold Gets (each touches a never-warmed bucket page), 1 replace Put, 1
// transient Put+Delete, and 1 snapshot Range over the replace window.
// Each level restores the same warm state first, so scaling has to come
// from stegdb's latching (pager page latches, hash stripes, snapshot
// reads). The write-back Sync runs after the window as the level's Commit:
// its wall time is unmeasured — folding its drain into the window would
// measure the block cache, A7's subject — but its device time is charged
// to the level's disk-sec.
func StegDBWorkload(ops int) Workload {
	if ops <= 0 {
		ops = 256
	}
	var (
		fs  *stegfs.FS
		tab *stegdb.Table
	)
	coldKey := func(c int) string { return fmt.Sprintf("e-cold-%05d", c%sdbColdKeys) }
	op := func(i int) error {
		switch i % 8 {
		case 1:
			return sdbReplace(tab, i/8, i)
		case 3, 7:
			k := coldKey((i/8)*2 + i%8/7)
			v, ok, err := tab.Get([]byte(k))
			if err != nil || !ok || string(v) != k+"=coldrow" {
				return fmt.Errorf("cold get %s = %q %v %v", k, v, ok, err)
			}
			return nil
		case 4:
			return sdbTransient(tab, fmt.Sprintf("d-tmp-%06d", i))
		case 6:
			return sdbRangeRW(tab)
		default: // 0, 2, 5
			return sdbHotGet(tab, i)
		}
	}
	return Workload{
		Ops:         ops,
		CacheBlocks: sdbCacheBlocks,
		Policy:      "2q",
		Populate: func(cfg Config, f *stegfs.FS) error {
			fs = f
			var err error
			if tab, err = stegdb.CreateTable(fs.NewHiddenView("dbc"), "a8.db", true, sdbBuckets); err != nil {
				return err
			}
			tab.Pager().SetPageCacheSize(sdbPageCache)
			coldRow := func(c int) (string, string) { k := coldKey(c); return k, k + "=coldrow" }
			return sdbPopulate(tab, coldRow, ops, op)
		},
		// Same cold start every level: drop the pager page cache and the
		// block cache, then re-warm the tree (one full snapshot scan) and
		// the hot and rw bucket pages.
		Reset: func() error {
			if err := tab.Pager().InvalidatePageCache(); err != nil {
				return err
			}
			if err := fs.Cache().Invalidate(); err != nil {
				return err
			}
			if err := tab.Scan(func(k, v []byte) bool { return true }); err != nil {
				return err
			}
			return sdbWarm(tab)
		},
		Op:     op,
		Commit: func() error { return tab.Sync() },
		Finish: func() error { return sdbCheck(tab) },
	}
}

// Shape of the stegdb write workload (A9).
const (
	sdwPartitions  = 16   // partitioned table width; one hidden file each
	sdwCacheBlocks = 8192 // block cache: comfortably above the files' blocks
	sdwPageCache   = 1024 // pager page cache frames, per partition
	sdwBuckets     = 256  // hash buckets per partition
	sdwOps         = 256
)

// StegDBWriteWorkload is ablation A9, stegdb write scalability: 256
// write-heavy ops over ONE shared table partitioned across sdwPartitions
// hidden files. Per 8 ops: 3 cold Puts (each rewrites a row on a
// never-warmed leaf, paying device latency for the leaf and bucket page
// reads), 1 in-cache replace Put, 1 transient Put+Delete, 1 hot Get, 1 cold
// Get, and 1 cross-partition snapshot Range over the rw window. With one
// exclusive tree lock — or one hidden file, whose object lock serializes
// every WriteAt — concurrent writers would queue behind each other's page
// misses; with B-link page latches and the partitioned layout their misses
// overlap. The group-commit Sync runs as the level's Commit, like A8.
func StegDBWriteWorkload() Workload {
	var (
		fs *stegfs.FS
		pt *stegdb.PartitionedTable
	)
	coldKey := func(c int) string { return fmt.Sprintf("c-%05d", c%sdbColdKeys) }
	op := func(i int) error {
		stripe := i / 8
		switch i % 8 {
		case 0, 2, 4: // cold Put: rewrite a row on a never-warmed page
			k := coldKey(stripe*3 + (i%8)/2)
			if err := pt.Put([]byte(k), []byte(fmt.Sprintf("%s#%06d", k, i))); err != nil {
				return fmt.Errorf("cold put: %w", err)
			}
			return nil
		case 1:
			return sdbReplace(pt, stripe, i)
		case 3:
			return sdbTransient(pt, fmt.Sprintf("t-%06d", i))
		case 5:
			return sdbHotGet(pt, i)
		case 6:
			return sdbRangeRW(pt)
		default: // 7: cold Get on a never-warmed page
			k := coldKey(sdbColdKeys - 1 - stripe)
			v, ok, err := pt.Get([]byte(k))
			if err != nil || !ok || !strings.HasPrefix(string(v), k+"#") {
				return fmt.Errorf("cold get %s = %q %v %v", k, v, ok, err)
			}
			return nil
		}
	}
	return Workload{
		Ops:         sdwOps,
		CacheBlocks: sdwCacheBlocks,
		Policy:      "2q",
		Populate: func(cfg Config, f *stegfs.FS) error {
			fs = f
			var err error
			if pt, err = stegdb.CreatePartitionedTable(fs.NewHiddenView("dbw"), "a9.db", sdwPartitions, true, sdwBuckets); err != nil {
				return err
			}
			pt.SetPageCacheSize(sdwPageCache)
			coldRow := func(c int) (string, string) { k := coldKey(c); return k, fmt.Sprintf("%s#%06d", k, 0) }
			return sdbPopulate(pt, coldRow, sdwOps, op)
		},
		Reset: func() error {
			if err := pt.InvalidatePageCache(); err != nil {
				return err
			}
			if err := fs.Cache().Invalidate(); err != nil {
				return err
			}
			return sdbWarm(pt)
		},
		Op:     op,
		Commit: func() error { return pt.Sync() },
		Finish: func() error { return sdbCheck(pt) },
	}
}
