package bench

import (
	"fmt"
	"sync"
	"time"

	"stegfs/internal/alloc"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// SweepRow is one goroutine level of a concurrency sweep (ablations A5–A9):
// the workload's fixed op set fanned across Goroutines workers on one
// shared StegFS volume.
type SweepRow struct {
	Goroutines  int
	WallSeconds float64 // wall-clock time for the op set (+ in-window barrier)
	OpsPerSec   float64 // ops / WallSeconds
	Speedup     float64 // OpsPerSec relative to the first row
	DiskSeconds float64 // simulated-disk time charged to the level
	HitRate     float64 // block-cache hit rate of the level (0 when uncached)
	// SyncTailSeconds is the in-window barrier alone (A7's closing
	// FS.Sync): the dirty backlog write-behind left for the barrier to
	// drain. The elevator (C-SCAN) flusher keeps this tail short — without
	// the sweep cursor the background runs restart at the lowest dirty
	// block every time and the starved high-block tail lands on the
	// barrier.
	SyncTailSeconds float64

	// Flush-pipeline evidence: deferred writes must reach the device as
	// batched sorted runs, not per-block synchronous writes.
	WriteBacks   int64 // blocks written back during the level
	FlushBatches int64 // batched flush submissions those blocks rode in
	WriteBehinds int64 // background write-behind runs
	FlushStalls  int64 // writer stalls at the hard dirty cap
}

// AllocReport summarizes the sharded allocator's per-group counters for a
// sweep, so the harness can print allocation skew and lock contention next
// to the scaling numbers.
type AllocReport struct {
	Groups     int
	Allocs     int64
	Frees      int64
	Locks      int64 // counted group-lock acquisitions (alloc, free, bit probes)
	Contended  int64 // of Locks, how many found the group mutex held
	MinAllocs  int64
	MaxAllocs  int64
	MeanAllocs float64
}

// NewAllocReport snapshots an allocator into an AllocReport.
func NewAllocReport(a *alloc.Allocator) AllocReport {
	st := a.Stats()
	tot := st.Totals()
	min, max, mean := st.AllocSkew()
	return AllocReport{
		Groups:     a.Groups(),
		Allocs:     tot.Allocs,
		Frees:      tot.Frees,
		Locks:      tot.Locks,
		Contended:  tot.Contended,
		MinAllocs:  min,
		MaxAllocs:  max,
		MeanAllocs: mean,
	}
}

// Workload is one experiment of the concurrency sweep. Sweep owns the
// volume, the goroutine levels, the measured window and the accounting; a
// Workload supplies only what differs between experiments. Populate and Op
// are required; the other hooks may be left nil.
type Workload struct {
	// Ops is the op count per level: op indexes 0..Ops-1, the same set at
	// every level — only their split across goroutines changes.
	Ops int
	// Tile is the number of consecutive ops that must stay on one
	// goroutine because they mutate one object in order. Every level's
	// chunk boundaries must fall on a multiple of it; 0 or 1 allows any
	// split.
	Tile int

	// The shared volume's mount: block-cache capacity (0 = uncached), the
	// replacement policy used when Config.CachePolicy is empty, and the
	// write-behind high-water mark and flusher count (0 = off).
	CacheBlocks  int
	Policy       string
	WriteBehind  int
	FlushWorkers int

	// Populate fills the freshly formatted volume once, before the first
	// level, and binds the other hooks to it.
	Populate func(cfg Config, fs *stegfs.FS) error
	// Reset restores the level's starting state. It runs before the window
	// with latency emulation off and is not charged to the level.
	Reset func() error
	// Op runs op i. The index alone fixes what the op does.
	Op func(i int) error
	// Barrier closes the window after the last op (A7's FS.Sync); its wall
	// time is reported as SyncTailSeconds.
	Barrier func() error
	// Commit runs after the window with emulation off: its wall time is not
	// measured, but its device time and cache traffic are charged to the
	// level (A8/A9's stegdb Sync).
	Commit func() error
	// Verify checks the volume after each level, outside the accounting.
	Verify func() error
	// Finish checks the volume once after the last level.
	Finish func() error
}

// runHook calls h unless it is nil.
func runHook(h func() error) error {
	if h == nil {
		return nil
	}
	return h()
}

// Sweep runs one concurrency ablation: goroutines x levels (default
// {1,2,4,8,16}) over one shared StegFS volume, reproducing the multi-user
// regime of Figure 7 with real parallelism instead of interleaved turns.
// The disk emulates latency (vdisk.Disk.EmulateLatency at emuScale, default
// 0.5) inside the measured window only, so every device request actually
// waits its simulated service time there; wall-clock throughput then
// measures how much of that latency the stack keeps in flight, while the
// simulated-disk cost of the level — the same op set at every level — must
// stay flat: concurrency buys wall-clock time, it must not re-price the
// device.
//
// Each goroutine runs one contiguous chunk of op indexes. A strided split
// (i % g == w) would alias the op mixes' period-4/8 structure and hand
// every cold op to the same goroutine at small g.
func Sweep(cfg Config, w Workload, levels []int, emuScale float64) ([]SweepRow, AllocReport, error) {
	if levels == nil {
		levels = []int{1, 2, 4, 8, 16}
	}
	if emuScale <= 0 {
		emuScale = 0.5
	}
	tile := max(w.Tile, 1)
	for _, g := range levels {
		if g <= 0 {
			return nil, AllocReport{}, fmt.Errorf("bench: invalid concurrency level %d", g)
		}
		for k := 1; k < g; k++ {
			if k*w.Ops/g%tile != 0 {
				return nil, AllocReport{}, fmt.Errorf("bench: level %d does not split %d ops into whole %d-op tiles", g, w.Ops, tile)
			}
		}
	}

	store, err := vdisk.NewMemStore(cfg.NumBlocks(), cfg.BlockSize)
	if err != nil {
		return nil, AllocReport{}, err
	}
	disk := vdisk.NewDisk(store, cfg.Geometry)
	p := cfg.Steg
	p.Seed = cfg.Seed
	var opts []stegfs.Option
	if w.CacheBlocks > 0 {
		policy := cfg.CachePolicy
		if policy == "" {
			policy = w.Policy
		}
		opts = append(opts, stegfs.WithCache(w.CacheBlocks), stegfs.WithCachePolicy(policy))
	}
	if w.WriteBehind > 0 {
		opts = append(opts, stegfs.WithWriteBehind(w.WriteBehind, w.FlushWorkers))
	}
	fs, err := stegfs.Format(disk, p, opts...)
	if err != nil {
		return nil, AllocReport{}, err
	}
	defer fs.Close() // stop the background flusher pool when the sweep ends
	if err := w.Populate(cfg, fs); err != nil {
		return nil, AllocReport{}, fmt.Errorf("populate: %w", err)
	}

	var rows []SweepRow
	for _, g := range levels {
		if err := runHook(w.Reset); err != nil {
			return nil, AllocReport{}, fmt.Errorf("g=%d reset: %w", g, err)
		}
		preDisk := disk.Elapsed()
		preStats, _ := fs.CacheStats()

		disk.EmulateLatency(emuScale)
		start := time.Now()
		err := runOps(w, g)
		var tail time.Duration
		if err == nil && w.Barrier != nil {
			barrierStart := time.Now()
			err = w.Barrier()
			tail = time.Since(barrierStart)
		}
		wall := time.Since(start)
		disk.EmulateLatency(0)
		if err == nil {
			err = runHook(w.Commit)
		}
		if err != nil {
			return nil, AllocReport{}, fmt.Errorf("g=%d: %w", g, err)
		}

		stats, _ := fs.CacheStats()
		d := stats.Sub(preStats)
		row := SweepRow{
			Goroutines:      g,
			WallSeconds:     wall.Seconds(),
			DiskSeconds:     (disk.Elapsed() - preDisk).Seconds(),
			HitRate:         d.HitRate(),
			SyncTailSeconds: tail.Seconds(),
			WriteBacks:      d.WriteBacks,
			FlushBatches:    d.FlushBatches,
			WriteBehinds:    d.WriteBehinds,
			FlushStalls:     d.FlushStalls,
		}
		if wall > 0 {
			row.OpsPerSec = float64(w.Ops) / wall.Seconds()
		}
		rows = append(rows, row)

		if err := runHook(w.Verify); err != nil {
			return nil, AllocReport{}, fmt.Errorf("g=%d verify: %w", g, err)
		}
	}
	if len(rows) > 0 && rows[0].OpsPerSec > 0 {
		for i := range rows {
			rows[i].Speedup = rows[i].OpsPerSec / rows[0].OpsPerSec
		}
	}
	if err := runHook(w.Finish); err != nil {
		return nil, AllocReport{}, fmt.Errorf("post-sweep: %w", err)
	}
	return rows, NewAllocReport(fs.Alloc()), nil
}

// runOps runs the workload's op set on g goroutines, each over one
// contiguous chunk of op indexes, and returns the first error.
func runOps(w Workload, g int) error {
	errs := make(chan error, g)
	var wg sync.WaitGroup
	for k := 0; k < g; k++ {
		lo, hi := k*w.Ops/g, (k+1)*w.Ops/g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := w.Op(i); err != nil {
					errs <- fmt.Errorf("op %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}
