package stegfs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"stegfs/internal/alloc"
	"stegfs/internal/bitmapvec"
	"stegfs/internal/blockcache"
	"stegfs/internal/fsapi"
	"stegfs/internal/plainfs"
	"stegfs/internal/sgcrypto"
	"stegfs/internal/vdisk"
)

// createStripes is the number of name-stripe mutexes serializing concurrent
// creates of the same physical name (see FS.createMu).
const createStripes = 64

// FS is a mounted StegFS volume: an embedded plain file system reached
// through the central directory, plus hidden objects reachable only with
// the correct (name, key) pairs.
//
// Lock hierarchy (outermost first):
//
//	nsMu → objs gate (then one per-object lock) → createMu stripe →
//	mu → allocation-group locks → cache/device internals
//
// Block allocation lives in the sharded allocator (internal/alloc): the
// data region is split into allocation groups, each with its own mutex, so
// writers to distinct hidden objects — and plain-file mutators — contend
// only when their blocks land in the same group. mu is demoted to guarding
// the superblock fields and serializing the Sync/Backup metadata writes;
// every mutator (hidden or plain) holds the freeze gate shared, which is
// what lets Sync/Backup quiesce the whole volume, all allocation groups
// included, before imaging or writing the bitmap.
type FS struct {
	// lockcheck:level 10 volume/nsMu
	nsMu sync.Mutex // serializes compound namespace ops (directory updates)
	// lockcheck:level 40 volume/fsMu
	mu      sync.RWMutex // guards sb fields; serializes Sync/Backup metadata writes
	objs    *lockTable   // per-hidden-object locks, keyed by header block
	sealers *sealerCache // open-state hints keyed by header signature (see sealcache.go)
	// lockcheck:level 30 volume/createMu
	createMu [createStripes]sync.Mutex // name stripes: same-(name,key) creates serialize here
	dev      vdisk.Device
	cache    *blockcache.Cache  // non-nil when mounted through WithCache
	retry    *vdisk.RetryDevice // non-nil when mounted through WithRetry
	alloc    *alloc.Allocator   // sharded allocator over the volume bitmap
	sb       *superblock
	params   Params
	plain    *plainfs.Volume
	health   healthState // read-only degradation state (see health.go)
}

// createStripe returns the name-stripe mutex for a physical name.
//
// lockcheck:returns volume/createMu
func (fs *FS) createStripe(physName string) *sync.Mutex {
	h := fnv.New32a()
	_, _ = h.Write([]byte(physName))
	return &fs.createMu[h.Sum32()%createStripes]
}

// Option configures Format and Mount.
type Option func(*mountConfig)

type mountConfig struct {
	cacheBlocks  int
	cachePolicy  string
	writeBehind  int
	flushWorkers int
	allocGroups  int
	retryPolicy  *vdisk.RetryPolicy
	retry        *vdisk.RetryDevice // set by applyOptions when retryPolicy != nil
}

// WithCache mounts the volume through a blockcache of the given capacity (in
// blocks). All I/O — plain files, hidden files, and anything layered on them
// such as stegdb — then runs through the cache; FS.Sync flushes dirty data
// blocks to the device before the superblock/bitmap write so the on-device
// image stays crash-consistent. A capacity of 0 is a no-op.
func WithCache(blocks int) Option {
	return func(c *mountConfig) { c.cacheBlocks = blocks }
}

// WithCachePolicy selects the cache replacement policy ("lru" or "2q"; see
// blockcache.PolicyNames). It composes with WithCache, which sets the
// capacity; without WithCache it only validates the name. The
// scan-resistant 2Q keeps the repeatedly probed header/p-tree/directory
// blocks resident even when hidden-file data scans exceed the cache
// capacity.
func WithCachePolicy(name string) Option {
	return func(c *mountConfig) { c.cachePolicy = name }
}

// WithWriteBehind bounds deferred dirty data: once more than highWater dirty
// blocks accumulate in the cache, the flush pipeline writes dirty blocks
// back in ascending, batched runs without waiting for the next Sync. The
// optional second argument sets the number of background flusher goroutines
// servicing those runs (default 1): the runs are issued outside the cache
// mutex, so a cached writer never stalls behind the device; pass a negative
// worker count to keep write-behind synchronous in the writing goroutine.
// The data-before-metadata barrier in FS.Sync is unaffected: write-behind
// may flush any dirty block early (headers and p-tree blocks included — the
// cache cannot tell them apart), but the on-device image's consistency
// rests on the superblock/bitmap being written only inside Sync after a
// full flush — which drains the pipeline first — and that ordering is
// untouched. Composes with WithCache; highWater 0 disables.
func WithWriteBehind(highWater int, flushWorkers ...int) Option {
	return func(c *mountConfig) {
		c.writeBehind = highWater
		if len(flushWorkers) > 0 {
			c.flushWorkers = flushWorkers[0]
		}
	}
}

// WithAllocGroups sets the number of allocation groups the sharded
// allocator partitions the data region into (default alloc.DefaultGroups).
// The grouping is runtime-only — the on-disk bitmap layout is identical for
// every value, and two-level free-weighted sampling keeps allocation
// uniform over the whole free space regardless of the group count — so the
// knob trades allocator parallelism against per-group bookkeeping without
// touching the format or the §3.1 adversary model. Values <= 0 select the
// default.
func WithAllocGroups(groups int) Option {
	return func(c *mountConfig) { c.allocGroups = groups }
}

// resolveAllocGroups turns the WithAllocGroups setting into a concrete group
// count. Values > 0 pass through. The default scales with the machine and
// the volume instead of a fixed constant: contention on a group mutex grows
// with the number of goroutines that can run at once (alloc.Stats counts
// exactly these collisions), so the default provisions 8 groups per
// available CPU — enough that concurrent writers rarely meet — bounded
// below for parallelism headroom and above by both a bookkeeping cap and a
// 64-block minimum span per group on small volumes (alloc.New enforces the
// same floor internally). Group count is runtime-only and allocation stays
// uniform over the whole free space regardless of it (two-level
// free-weighted sampling), so scaling it never touches the on-disk format
// or the §3.1 uniformity guarantees.
func resolveAllocGroups(configured int, dataBlocks int64) int {
	if configured > 0 {
		return configured
	}
	g := 8 * runtime.GOMAXPROCS(0)
	if g < alloc.DefaultGroups {
		g = alloc.DefaultGroups
	}
	if g > 256 {
		g = 256
	}
	if bySpan := dataBlocks / 64; int64(g) > bySpan {
		g = int(bySpan)
	}
	if g < 1 {
		g = 1
	}
	return g
}

// WithRetry mounts the volume through a vdisk.RetryDevice: transient device
// faults (vdisk.ErrTransient, vdisk.ErrIO) are absorbed by bounded retries
// with exponential backoff below the cache, so they never reach the FS and
// never degrade the mount. maxRetries <= 0 selects the policy default.
// FS.Health reports the retry/give-up counters.
func WithRetry(maxRetries int) Option {
	return func(c *mountConfig) {
		c.retryPolicy = &vdisk.RetryPolicy{MaxRetries: maxRetries}
	}
}

// applyOptions resolves opts and wraps dev in a retry layer and/or a cache
// when requested (stacking retry below the cache, so flushed write-backs are
// retried too).
func applyOptions(dev vdisk.Device, opts []Option) (vdisk.Device, *blockcache.Cache, mountConfig, error) {
	var cfg mountConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.retryPolicy != nil {
		cfg.retry = vdisk.NewRetryDevice(dev, *cfg.retryPolicy)
		dev = cfg.retry
	}
	if cfg.cacheBlocks > 0 {
		c, err := blockcache.NewWithOptions(dev, blockcache.Options{
			Capacity:     cfg.cacheBlocks,
			Policy:       cfg.cachePolicy,
			WriteBehind:  cfg.writeBehind,
			FlushWorkers: cfg.flushWorkers,
		})
		if err != nil {
			return nil, nil, cfg, err
		}
		return c, c, cfg, nil
	}
	if cfg.cachePolicy != "" {
		// Catch a policy name typo even when the capacity is 0 (uncached).
		if _, err := blockcache.NewPolicy(cfg.cachePolicy, 0); err != nil {
			return nil, nil, cfg, err
		}
	}
	return dev, nil, cfg, nil
}

// layoutFor computes region boundaries for a volume on dev.
func layoutFor(dev vdisk.Device, maxPlain int) (bmStart, bmLen, inoStart, inoLen, dataStart int64) {
	bs := int64(dev.BlockSize())
	bmStart = 1
	bmLen = (int64(bitmapvec.MarshaledLen(dev.NumBlocks())) + bs - 1) / bs
	inoStart = bmStart + bmLen
	inoLen = plainfs.InodeBlocksFor(dev, maxPlain)
	dataStart = inoStart + inoLen
	return
}

// Format initializes dev as a StegFS volume: writes random patterns into all
// blocks, reserves metadata regions, abandons a random fraction of blocks,
// creates the dummy hidden files, and mounts the result.
func Format(dev vdisk.Device, params Params, opts ...Option) (_ *FS, retErr error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	dev, cache, mcfg, err := applyOptions(dev, opts)
	if err != nil {
		return nil, err
	}
	// The cache may have spawned background flusher goroutines; a failed
	// format must not leak them.
	defer func() {
		if retErr != nil && cache != nil {
			_ = cache.StopFlushers()
		}
	}()
	bmStart, bmLen, inoStart, inoLen, dataStart := layoutFor(dev, params.MaxPlainFiles)
	n := dev.NumBlocks()
	if dataStart+16 >= n {
		return nil, fmt.Errorf("stegfs: volume too small: %d blocks, metadata needs %d", n, dataStart)
	}
	if dev.BlockSize() < superblockLen {
		return nil, fmt.Errorf("stegfs: block size %d smaller than superblock (%d)", dev.BlockSize(), superblockLen)
	}

	sb := &superblock{
		blockSize:   uint32(dev.BlockSize()),
		numBlocks:   uint64(n),
		bmStart:     uint64(bmStart),
		bmLen:       uint64(bmLen),
		inoStart:    uint64(inoStart),
		inoLen:      uint64(inoLen),
		dataStart:   uint64(dataStart),
		maxPlain:    uint64(params.MaxPlainFiles),
		pctAband:    params.PctAbandoned,
		freeMin:     uint32(params.FreeMin),
		freeMax:     uint32(params.FreeMax),
		nDummy:      uint32(params.NDummy),
		dummyAvg:    uint64(params.DummyAvgSize),
		seed:        params.Seed,
		headerProbe: uint32(params.MaxHeaderProbes),
		freeStop:    uint32(params.FreeProbeStop),
	}
	if params.DeterministicKeys {
		sb.flags |= flagDeterministicKeys
	}
	if params.DeterministicKeys {
		sb.volKey = sgcrypto.Signature("stegfs.volkey.deterministic", []byte{
			byte(params.Seed), byte(params.Seed >> 8), byte(params.Seed >> 16),
			byte(params.Seed >> 24), byte(params.Seed >> 32), byte(params.Seed >> 40),
			byte(params.Seed >> 48), byte(params.Seed >> 56)})
	} else if _, err := rand.Read(sb.volKey[:]); err != nil {
		return nil, fmt.Errorf("stegfs: volume key: %w", err)
	}

	// Step 1 — random patterns into all blocks so used blocks do not stand
	// out from free blocks (§3.1).
	if params.FillVolume {
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], uint64(params.Seed))
		filler := sgcrypto.NewRandomFiller(seed[:])
		buf := make([]byte, dev.BlockSize())
		for b := int64(0); b < n; b++ {
			filler.Fill(buf)
			if err := dev.WriteBlock(b, buf); err != nil {
				return nil, fmt.Errorf("stegfs: format fill block %d: %w", b, err)
			}
		}
	}

	// Step 2 — bitmap with metadata regions marked used, then the sharded
	// allocator over the data region (the single-threaded setup above is the
	// last direct bitmap access; everything after goes through the groups).
	bm := bitmapvec.New(n)
	for b := int64(0); b < dataStart; b++ {
		if err := bm.Set(b); err != nil {
			return nil, err
		}
	}
	al, err := alloc.New(bm, dataStart, resolveAllocGroups(mcfg.allocGroups, n-dataStart), params.Seed)
	if err != nil {
		return nil, err
	}

	// Step 3 — abandon a random selection of data-region blocks (§3.1:
	// "some randomly selected blocks are abandoned by turning on their
	// corresponding bits in the bitmap"). Drawn through the allocator, so
	// abandoned blocks follow the same whole-volume uniform distribution as
	// hidden allocations.
	dataBlocks := n - dataStart
	nAband := int64(float64(dataBlocks) * params.PctAbandoned)
	for i := int64(0); i < nAband; i++ {
		b, err := al.Alloc()
		if err != nil {
			return nil, fmt.Errorf("stegfs: abandoning blocks: %w", err)
		}
		if !params.FillVolume {
			// Ensure abandoned blocks still look random even when the bulk
			// fill was skipped.
			if err := writeRandomBlock(dev, b); err != nil {
				return nil, err
			}
		}
	}
	sb.nAbandoned = uint64(nAband)

	// Zero the central directory so it decodes as empty inodes.
	zero := make([]byte, dev.BlockSize())
	for b := inoStart; b < inoStart+inoLen; b++ {
		if err := dev.WriteBlock(b, zero); err != nil {
			return nil, err
		}
	}

	fs := &FS{dev: dev, cache: cache, retry: mcfg.retry, alloc: al, sb: sb, params: params, objs: newLockTable(), sealers: newSealerCache()}
	fs.plain, err = plainfs.NewEmbedded(dev, bm, inoStart, inoLen, dataStart, plainfs.Config{
		Policy:   plainfs.Random,
		MaxFiles: params.MaxPlainFiles,
		Seed:     params.Seed + 1,
		Alloc:    al,
	})
	if err != nil {
		return nil, err
	}

	// Step 4 — dummy hidden files (§3.1).
	if err := fs.createDummies(); err != nil {
		return nil, fmt.Errorf("stegfs: creating dummy files: %w", err)
	}

	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return fs, nil
}

// writeRandomBlock fills block b of dev with fresh random-looking bytes.
func writeRandomBlock(dev vdisk.Device, b int64) error {
	buf := make([]byte, dev.BlockSize())
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return err
	}
	sgcrypto.NewRandomFiller(seed[:]).Fill(buf)
	return dev.WriteBlock(b, buf)
}

// Mount opens an already-formatted StegFS volume.
func Mount(dev vdisk.Device, opts ...Option) (_ *FS, retErr error) {
	dev, cache, mcfg, err := applyOptions(dev, opts)
	if err != nil {
		return nil, err
	}
	// As in Format: a failed mount must stop any flusher goroutines the
	// cache already spawned.
	defer func() {
		if retErr != nil && cache != nil {
			_ = cache.StopFlushers()
		}
	}()
	buf := make([]byte, dev.BlockSize())
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	sb, err := decodeSuper(buf)
	if err != nil {
		return nil, err
	}
	if int64(sb.numBlocks) != dev.NumBlocks() || int(sb.blockSize) != dev.BlockSize() {
		return nil, fmt.Errorf("stegfs: superblock geometry %dx%d does not match device %dx%d",
			sb.numBlocks, sb.blockSize, dev.NumBlocks(), dev.BlockSize())
	}
	bs := int64(dev.BlockSize())
	raw := make([]byte, int64(sb.bmLen)*bs)
	for i := int64(0); i < int64(sb.bmLen); i++ {
		if err := dev.ReadBlock(int64(sb.bmStart)+i, raw[i*bs:(i+1)*bs]); err != nil {
			return nil, err
		}
	}
	bm, err := bitmapvec.Unmarshal(dev.NumBlocks(), raw)
	if err != nil {
		return nil, err
	}
	params := Params{
		PctAbandoned:      sb.pctAband,
		FreeMin:           int(sb.freeMin),
		FreeMax:           int(sb.freeMax),
		NDummy:            int(sb.nDummy),
		DummyAvgSize:      int64(sb.dummyAvg),
		MaxPlainFiles:     int(sb.maxPlain),
		MaxHeaderProbes:   int(sb.headerProbe),
		FreeProbeStop:     int(sb.freeStop),
		Seed:              sb.seed,
		FillVolume:        true,
		DeterministicKeys: sb.flags&flagDeterministicKeys != 0,
	}
	al, err := alloc.New(bm, int64(sb.dataStart), resolveAllocGroups(mcfg.allocGroups, dev.NumBlocks()-int64(sb.dataStart)), sb.seed+2)
	if err != nil {
		return nil, err
	}
	fs := &FS{dev: dev, cache: cache, retry: mcfg.retry, alloc: al, sb: sb, params: params, objs: newLockTable(), sealers: newSealerCache()}
	fs.plain, err = plainfs.NewEmbedded(dev, bm, int64(sb.inoStart), int64(sb.inoLen), int64(sb.dataStart), plainfs.Config{
		Policy:   plainfs.Random,
		MaxFiles: int(sb.maxPlain),
		Seed:     sb.seed + 1,
		Alloc:    al,
	})
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// Sync persists the superblock and the allocation bitmap. When the volume is
// mounted through a cache, dirty data blocks are flushed to the device first
// (so no metadata ever references data that has not reached the device) and
// the metadata writes are flushed after, leaving the on-device image fully
// consistent at return. The freeze gate drains every in-flight mutator
// first — hidden-object operations hold it through their object locks and
// plain-file mutators hold it around their calls — otherwise the bitmap
// could be written while a rewrite has allocated blocks whose data has not
// reached the cache yet, and the flushed image would pair fresh metadata
// with stale data. The bitmap serialization itself additionally quiesces
// every allocation group (alloc.MarshalBitmap), so even a mutator slipping
// past the gate could never yield a torn bitmap image.
func (fs *FS) Sync() error {
	fs.objs.Freeze()
	defer fs.objs.Unfreeze()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// A failed barrier means the device could not persist data that mutators
	// already believe durable — if it is a device-class fault, degrade the
	// mount so further mutations fail fast instead of widening the loss.
	return fs.observe(fs.syncLocked())
}

// lockcheck:holds volume/fsMu
func (fs *FS) syncLocked() error {
	if fs.cache != nil {
		// Data blocks before the metadata that references them.
		if err := fs.cache.Flush(); err != nil {
			return err
		}
	}
	buf := make([]byte, fs.dev.BlockSize())
	if err := encodeSuper(fs.sb, buf); err != nil {
		return err
	}
	if err := fs.dev.WriteBlock(0, buf); err != nil {
		return err
	}
	raw := fs.alloc.MarshalBitmap()
	bs := fs.dev.BlockSize()
	for i := int64(0); i < int64(fs.sb.bmLen); i++ {
		for j := range buf {
			buf[j] = 0
		}
		off := i * int64(bs)
		if off < int64(len(raw)) {
			copy(buf, raw[off:])
		}
		if err := fs.dev.WriteBlock(int64(fs.sb.bmStart)+i, buf); err != nil {
			return err
		}
	}
	if fs.cache != nil {
		// Push the superblock/bitmap writes out too.
		if err := fs.cache.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs the volume, flushes any cache and stops the cache's
// background flusher goroutines, leaving the device image complete and no
// worker outliving the mount. The underlying store is NOT closed — the
// caller provided it and still owns it. The FS must not be used afterwards.
func (fs *FS) Close() error {
	err := fs.Sync()
	if fs.cache != nil {
		if serr := fs.cache.StopFlushers(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// Cache returns the block cache the volume is mounted through, or nil when
// uncached.
func (fs *FS) Cache() *blockcache.Cache { return fs.cache }

// CacheStats returns the cache counters and whether a cache is mounted.
func (fs *FS) CacheStats() (blockcache.Stats, bool) {
	if fs.cache == nil {
		return blockcache.Stats{}, false
	}
	return fs.cache.Stats(), true
}

// Params returns the volume's parameters.
func (fs *FS) Params() Params { return fs.params }

// Device returns the underlying block device.
func (fs *FS) Device() vdisk.Device { return fs.dev }

// Bitmap returns a consistent snapshot of the allocation bitmap, taken with
// all allocation groups quiesced. Adversary tooling diffs these snapshots.
func (fs *FS) Bitmap() *bitmapvec.Bitmap { return fs.alloc.Snapshot() }

// Alloc exposes the sharded allocator (group count, free-weight inspection).
func (fs *FS) Alloc() *alloc.Allocator { return fs.alloc }

// DataStart returns the first allocatable data block.
func (fs *FS) DataStart() int64 { return int64(fs.sb.dataStart) }

// FreeBlocks returns the number of blocks currently free in the bitmap.
func (fs *FS) FreeBlocks() int64 { return fs.alloc.FreeBlocks() }

// --- Plain file operations (fsapi.FileSystem via the central directory) ----

// SchemeName implements fsapi.FileSystem.
func (fs *FS) SchemeName() string { return "StegFS" }

// Plain mutators hold the freeze gate shared (never fs.mu): their block
// allocations go through the sharded allocator — which the embedded plainfs
// volume shares with the hidden-file machinery — so they contend with hidden
// writers only per allocation group, while the gate hold gives Sync and
// Backup a point where no plain mutation is in flight either. Plain readers
// need no FS-level lock at all: plainfs's own internal lock serializes its
// directory state, so plain reads never block hidden operations (or each
// other's probe phases).

// Create stores a plain file through the central directory.
func (fs *FS) Create(name string, data []byte) error {
	if err := fs.checkWritable(); err != nil {
		return err
	}
	fs.objs.EnterGate()
	defer fs.objs.ExitGate()
	return fs.observe(fs.plain.Create(name, data))
}

// Read returns a plain file's contents.
func (fs *FS) Read(name string) ([]byte, error) {
	return fs.plain.Read(name)
}

// Write replaces a plain file's contents.
func (fs *FS) Write(name string, data []byte) error {
	if err := fs.checkWritable(); err != nil {
		return err
	}
	fs.objs.EnterGate()
	defer fs.objs.ExitGate()
	return fs.observe(fs.plain.Write(name, data))
}

// Delete removes a plain file.
func (fs *FS) Delete(name string) error {
	if err := fs.checkWritable(); err != nil {
		return err
	}
	fs.objs.EnterGate()
	defer fs.objs.ExitGate()
	return fs.observe(fs.plain.Delete(name))
}

// Stat describes a plain file.
func (fs *FS) Stat(name string) (fsapi.FileInfo, error) {
	return fs.plain.Stat(name)
}

// PlainNames lists the central directory (visible to everyone, including
// adversaries).
func (fs *FS) PlainNames() []string {
	return fs.plain.Names()
}

// PlainReferencedBlocks returns every block reachable from the central
// directory. An adversary can compute this set too — it is exactly what the
// brute-force examination of §3.1 subtracts from the bitmap.
func (fs *FS) PlainReferencedBlocks() (map[int64]bool, error) {
	return fs.plain.ReferencedBlocks()
}

var _ fsapi.FileSystem = (*FS)(nil)
