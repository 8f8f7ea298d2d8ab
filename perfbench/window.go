package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"stegfs/internal/alloc"
	"stegfs/internal/blockcache"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

// env fixes what a workload is built from.
type env struct {
	seed    int64
	clients int
	dir     string // scratch directory for file-backed volumes
	small   bool   // test sizes: a small volume that sets up in well under a second
	profile string // write a CPU profile of each measured window here
}

// workload is one set of inputs. setup builds and fills a fresh volume (with
// the tracing decorators in place when tr is non-nil), op runs one operation
// for a client, space reports the hidden bytes the volume occupies against
// the live user bytes (and rows) it holds, and verify checks the volume
// against the workload's model after the measured window.
type workload interface {
	setup(tr *tracer) error
	op(c *client) error
	vol() *volume
	space() (occupied, live, rows int64, err error)
	verify() (checked, failed int64, err error)
	close()
}

var workloadNames = []string{"hidden-read-hot", "hidden-churn-cold", "stegdb-commit"}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "hidden-read-hot":
		return newHotRead(e), nil
	case "hidden-churn-cold":
		return newChurn(e), nil
	case "stegdb-commit":
		return newCommit(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// volume is one stack: Store → vdisk.Disk → block cache → stegfs, with the
// store and device decorators spliced in when traced.
type volume struct {
	store vdisk.Store // the bare store, for remounting after the run
	disk  *vdisk.Disk
	fs    *stegfs.FS
}

func formatVolume(store vdisk.Store, tr *tracer, p stegfs.Params, opts ...stegfs.Option) (*volume, error) {
	s := store
	if tr != nil {
		s = wrapStore(store, tr)
	}
	disk := vdisk.NewDisk(s, vdisk.DefaultGeometry())
	var dev vdisk.Device = disk
	if tr != nil {
		dev = &tracedDevice{dev: disk, t: tr}
	}
	fs, err := stegfs.Format(dev, p, opts...)
	if err != nil {
		return nil, err
	}
	return &volume{store: store, disk: disk, fs: fs}, nil
}

// volumeParams are the format parameters every workload shares. Keys derive
// from the seed so block placement replays and files can be adopted again
// after a remount.
func volumeParams(seed int64, dummies int, dummyBytes int64) stegfs.Params {
	p := stegfs.DefaultParams()
	p.Seed = seed
	p.DeterministicKeys = true
	p.NDummy = dummies
	p.DummyAvgSize = dummyBytes
	return p
}

// counters are the program's own counters.
type counters struct {
	cache   blockcache.Stats
	disk    vdisk.Stats
	elapsed time.Duration
	alloc   alloc.GroupStats
}

func (v *volume) counters() counters {
	cs, _ := v.fs.CacheStats()
	return counters{cache: cs, disk: v.disk.Stats(), elapsed: v.disk.Elapsed(), alloc: v.fs.Alloc().Stats().Totals()}
}

func (c counters) sub(o counters) counters {
	d := c.disk
	d.Reads -= o.disk.Reads
	d.Writes -= o.disk.Writes
	d.SeqHits -= o.disk.SeqHits
	d.Seeks -= o.disk.Seeks
	d.BytesRead -= o.disk.BytesRead
	d.BytesWritten -= o.disk.BytesWritten
	d.BatchReads -= o.disk.BatchReads
	d.BatchWrites -= o.disk.BatchWrites
	d.Busy -= o.disk.Busy
	a := c.alloc
	a.Allocs -= o.alloc.Allocs
	a.Frees -= o.alloc.Frees
	a.Locks -= o.alloc.Locks
	a.Contended -= o.alloc.Contended
	return counters{cache: c.cache.Sub(o.cache), disk: d, elapsed: c.elapsed - o.elapsed, alloc: a}
}

// class groups operations for the latency metrics.
type class int

const (
	classRead  class = iota // hidden ReadAt, stegdb Get
	classWrite              // hidden WriteAt and delete+create, stegdb Put and Delete+Put
	classSync               // FS.Sync, PartitionedTable.Sync
	classOther              // TickDummies, stegdb Range
	numClasses
)

// client is one closed-loop client. Its inputs come from its own seeded
// generator.
type client struct {
	id         int
	rng        *rand.Rand
	tr         *tracer
	g          *ctrace
	seq        int64
	attempted  int64
	failed     int64
	readBytes  int64
	writeBytes int64
	lat        [numClasses][]time.Duration
	buf        []byte
	firstErr   error
}

func newClient(id int, seed int64, tr *tracer) *client {
	return &client{id: id, rng: rand.New(rand.NewPCG(uint64(seed), uint64(id)+1)), tr: tr}
}

// begin starts timing one operation, opening its root span when traced.
func (c *client) begin(k kind) time.Time {
	c.attempted++
	if c.g != nil {
		c.seq++
		c.g.beginOp(int64(c.id)<<40|c.seq, k, c.tr.now())
	}
	return time.Now()
}

func (c *client) end(cl class, t0 time.Time) {
	c.lat[cl] = append(c.lat[cl], time.Since(t0))
	if c.g != nil {
		c.g.pop(c.tr.now(), 0, c.tr.keep)
	}
}

// moved counts the user bytes an operation read and wrote.
func (c *client) moved(read, written int) {
	c.readBytes += int64(read)
	c.writeBytes += int64(written)
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
		fmt.Fprintf(os.Stderr, "perfbench: client %d: %v\n", c.id, err)
	}
}

// scratch returns the client's reusable buffer of n bytes.
func (c *client) scratch(n int) []byte {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// window is one measured run of the clients.
type window struct {
	secs     float64
	clients  []*client
	delta    counters
	rt       rtSample
	heapPeak uint64
	trace    *traceSum
	walBytes int64
}

// measure runs e.clients closed-loop clients for dur, or for maxOps
// operations each when maxOps > 0.
func measure(w workload, e env, tr *tracer, dur time.Duration, maxOps int) *window {
	cs := make([]*client, e.clients)
	for i := range cs {
		cs[i] = newClient(i, e.seed, tr)
	}
	heap0 := liveHeap()
	before, rt0 := w.vol().counters(), readRuntime()
	var prof *os.File
	if e.profile != "" {
		var err error
		if prof, err = startProfile(e.profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
	}
	if tr != nil {
		tr.on.Store(true)
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr != nil {
				c.g = tr.register()
			}
			for n := 0; (maxOps > 0 && n < maxOps) || (maxOps == 0 && time.Now().Before(deadline)); n++ {
				if err := w.op(c); err != nil {
					c.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	if tr != nil {
		tr.on.Store(false)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
	}
	rt := readRuntime().sub(rt0)
	var samples uint64 // the clients' latency buffers: the benchmark's, and they grow with throughput
	for _, c := range cs {
		for _, l := range c.lat {
			samples += uint64(cap(l)) * uint64(unsafe.Sizeof(time.Duration(0)))
		}
	}
	win := &window{
		secs:     secs,
		clients:  cs,
		delta:    w.vol().counters().sub(before),
		rt:       rt,
		heapPeak: max(heap0, liveHeap()-samples),
	}
	if tr != nil {
		s := tr.sum()
		win.trace = &s
		win.walBytes = tr.walBytes.Load()
	}
	return win
}

// rtSample is the Go runtime's view of the process.
type rtSample struct {
	allocs uint64        // heap objects allocated
	gcCPU  float64       // CPU seconds spent in the garbage collector
	cpu    time.Duration // process user+system CPU time
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSample{
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func (r rtSample) sub(o rtSample) rtSample {
	return rtSample{allocs: r.allocs - o.allocs, gcCPU: r.gcCPU - o.gcCPU, cpu: r.cpu - o.cpu}
}

func startProfile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// liveHeap collects garbage and returns the bytes still live. The window's
// peak is the larger of its value before and after the window, less the
// latency samples: a sample taken by a collection that runs during the
// window would also count what was allocated while it marked, and would read
// high whenever one happened to run.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second frees what sync.Pools kept through the first
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
