package main

// Tracing from outside the program: the benchmark records one span per call
// at each layer boundary it can reach through public types, by wrapping the
// stegdb.View handed to stegdb, the device handed to stegfs.Format (between
// the block cache and vdisk.Disk) and the store handed to vdisk.NewDisk.
// A decorator finds the calling client by the identity of its goroutine
// (curg). A client's spans nest, so its open spans form a stack and a span's
// self time is its duration minus its children's. A device call on any other
// goroutine was caused by no operation: it is a blockcache flusher's
// write-behind run, recorded as a root span named blockcache.flush, and the
// store calls under it as background store spans.

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stegfs/internal/fsapi"
	"stegfs/internal/stegdb"
	"stegfs/internal/vdisk"
)

type kind uint8

const (
	kStegdbPut kind = iota
	kStegdbGet
	kStegdbDelPut
	kStegdbRange
	kStegdbSync
	kStegfsReadAt
	kStegfsWriteAt
	kStegfsCreate
	kStegfsRecreate
	kStegfsResize
	kStegfsStat
	kStegfsSync
	kStegfsTick
	kDiskRead
	kDiskWrite
	kFlush
	kStoreRead
	kStoreWrite
	kStoreSync
	numKinds
)

const (
	layerStegdb = "stegdb"
	layerStegfs = "stegfs"
	layerDisk   = "vdisk.disk"
	layerFlush  = "blockcache.flush"
	layerStore  = "vdisk.store"
)

var kinds = [numKinds]struct{ name, layer string }{
	kStegdbPut:      {"stegdb.put", layerStegdb},
	kStegdbGet:      {"stegdb.get", layerStegdb},
	kStegdbDelPut:   {"stegdb.delete_put", layerStegdb},
	kStegdbRange:    {"stegdb.range", layerStegdb},
	kStegdbSync:     {"stegdb.sync", layerStegdb},
	kStegfsReadAt:   {"stegfs.readat", layerStegfs},
	kStegfsWriteAt:  {"stegfs.writeat", layerStegfs},
	kStegfsCreate:   {"stegfs.create", layerStegfs},
	kStegfsRecreate: {"stegfs.delete_create", layerStegfs},
	kStegfsResize:   {"stegfs.resize", layerStegfs},
	kStegfsStat:     {"stegfs.stat", layerStegfs},
	kStegfsSync:     {"stegfs.sync", layerStegfs},
	kStegfsTick:     {"stegfs.tick_dummies", layerStegfs},
	kDiskRead:       {"vdisk.disk.read", layerDisk},
	kDiskWrite:      {"vdisk.disk.write", layerDisk},
	kFlush:          {"blockcache.flush", layerFlush},
	kStoreRead:      {"vdisk.store.read", layerStore},
	kStoreWrite:     {"vdisk.store.write", layerStore},
	kStoreSync:      {"vdisk.store.sync", layerStore},
}

// agg sums the spans of one kind. units counts blocks for device calls and
// bytes for store calls and view reads and writes.
type agg struct{ n, dur, self, units int64 }

func (a *agg) add(b agg) { a.n += b.n; a.dur += b.dur; a.self += b.self; a.units += b.units }

type frame struct {
	k            kind
	start, child int64
}

type span struct {
	op         int64 // causing operation, -1 for background spans
	start, end int64 // ns since the tracer's epoch
	k          kind
	depth      uint8
}

// spans is a trace's span list and per-kind sums. The mutex orders the
// writer against the merge at the end of the run.
type spans struct {
	mu   sync.Mutex
	agg  [numKinds]agg
	list []span
}

func (s *spans) record(sp span, self, units int64, keep int) {
	a := &s.agg[sp.k]
	a.n++
	a.dur += sp.end - sp.start
	a.self += self
	a.units += units
	if len(s.list) < keep {
		s.list = append(s.list, sp)
	}
}

// ctrace is one client's trace; only the client's goroutine writes it.
// byRoot[r][k] is the self time of kind-k spans inside operations of kind r.
type ctrace struct {
	spans
	op     int64
	stack  []frame
	byRoot [numKinds][numKinds]int64
}

// beginOp opens the root span of operation op.
func (g *ctrace) beginOp(op int64, k kind, now int64) {
	g.mu.Lock()
	g.op = op
	g.stack = append(g.stack, frame{k: k, start: now})
	g.mu.Unlock()
}

func (g *ctrace) pop(now, units int64, keep int) {
	g.mu.Lock()
	f := g.stack[len(g.stack)-1]
	g.stack = g.stack[:len(g.stack)-1]
	d := now - f.start
	root := f.k
	if len(g.stack) > 0 {
		g.stack[len(g.stack)-1].child += d
		root = g.stack[0].k
	}
	g.byRoot[root][f.k] += d - f.child
	g.record(span{op: g.op, start: f.start, end: now, k: f.k, depth: uint8(len(g.stack))}, d-f.child, units, keep)
	g.mu.Unlock()
}

// tracer owns the traces. It records only while on, so set-up and
// verification pass through the decorators untraced.
type tracer struct {
	epoch time.Time
	keep  int // spans kept per trace for the span file
	on    atomic.Bool

	walBytes atomic.Int64 // bytes stegdb wrote to its journal files

	mu      sync.RWMutex
	byG     map[uintptr]*ctrace
	clients []*ctrace
	bg      spans
}

func newTracer(keep int) *tracer {
	return &tracer{epoch: time.Now(), keep: keep, byG: make(map[uintptr]*ctrace)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// register creates the trace of the client running on the calling
// goroutine.
func (t *tracer) register() *ctrace {
	g := &ctrace{op: -1}
	t.mu.Lock()
	t.byG[curg()] = g
	t.clients = append(t.clients, g)
	t.mu.Unlock()
	return g
}

// open is a decorated call in progress: a client's (g non-nil) or a
// background one.
type open struct {
	g     *ctrace
	k     kind
	start int64
}

// enter opens a span for a decorated call; a device call on a goroutine
// that is no client's becomes a blockcache.flush root. ok is false when the
// tracer is off.
func (t *tracer) enter(k kind, device bool) (o open, ok bool) {
	if !t.on.Load() {
		return o, false
	}
	t.mu.RLock()
	g := t.byG[curg()]
	t.mu.RUnlock()
	now := t.now()
	if g == nil {
		if device {
			k = kFlush
		}
		return open{k: k, start: now}, true
	}
	g.mu.Lock()
	g.stack = append(g.stack, frame{k: k, start: now})
	g.mu.Unlock()
	return open{g: g, k: k}, true
}

func (t *tracer) leave(o open, ok bool, units int64) {
	if !ok {
		return
	}
	if o.g != nil {
		o.g.pop(t.now(), units, t.keep)
		return
	}
	now := t.now()
	depth := uint8(1) // store calls run inside a flush
	if o.k == kFlush {
		depth = 0
	}
	t.bg.mu.Lock()
	t.bg.record(span{op: -1, start: o.start, end: now, k: o.k, depth: depth}, now-o.start, units, t.keep)
	t.bg.mu.Unlock()
}

// traceSum is the merged trace: per-kind sums over the clients (fg) and over
// the background flushers (bg), and the clients' self time split by the kind
// of operation it was spent in. A background span's self time is its whole
// duration; the flushes' store time is subtracted where it is reported.
type traceSum struct {
	fg, bg [numKinds]agg
	byRoot [numKinds][numKinds]int64
}

func (t *tracer) sum() traceSum {
	var s traceSum
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, g := range t.clients {
		g.mu.Lock()
		for k := range g.agg {
			s.fg[k].add(g.agg[k])
			for r := range g.byRoot {
				s.byRoot[r][k] += g.byRoot[r][k]
			}
		}
		g.mu.Unlock()
	}
	t.bg.mu.Lock()
	s.bg = t.bg.agg
	t.bg.mu.Unlock()
	return s
}

// writeSpans writes the kept spans as tab-separated lines, one trace after
// another (trace 0 is the background flushers).
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\top\tname\tdepth\tstart_ns\tend_ns")
	t.mu.RLock()
	all := []*spans{&t.bg}
	for _, g := range t.clients {
		all = append(all, &g.spans)
	}
	t.mu.RUnlock()
	for i, s := range all {
		s.mu.Lock()
		for _, sp := range s.list {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, sp.op, kinds[sp.k].name, sp.depth, sp.start, sp.end)
		}
		s.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDevice sits between the block cache and vdisk.Disk. Its method set
// is exactly the Disk's as the layers above see it: blockcache.Cache.Sync
// and Close and vdisk.ReadBlocks type-assert on Sync, Close and
// BatchDevice, so adding or dropping one would measure another program.
type tracedDevice struct {
	dev vdisk.BatchDevice
	t   *tracer
}

func (d *tracedDevice) NumBlocks() int64 { return d.dev.NumBlocks() }
func (d *tracedDevice) BlockSize() int   { return d.dev.BlockSize() }

func (d *tracedDevice) ReadBlock(n int64, buf []byte) error {
	o, ok := d.t.enter(kDiskRead, true)
	err := d.dev.ReadBlock(n, buf)
	d.t.leave(o, ok, 1)
	return err
}

func (d *tracedDevice) WriteBlock(n int64, buf []byte) error {
	o, ok := d.t.enter(kDiskWrite, true)
	err := d.dev.WriteBlock(n, buf)
	d.t.leave(o, ok, 1)
	return err
}

func (d *tracedDevice) ReadBlocks(ns []int64, bufs [][]byte) error {
	o, ok := d.t.enter(kDiskRead, true)
	err := d.dev.ReadBlocks(ns, bufs)
	d.t.leave(o, ok, int64(len(ns)))
	return err
}

func (d *tracedDevice) WriteBlocks(ns []int64, bufs [][]byte) error {
	o, ok := d.t.enter(kDiskWrite, true)
	err := d.dev.WriteBlocks(ns, bufs)
	d.t.leave(o, ok, int64(len(ns)))
	return err
}

// tracedStore sits under vdisk.NewDisk. It has Sync only when the store it
// wraps has it (see wrapStore), as blockcache and the fault layers
// type-assert on it.
type tracedStore struct {
	s vdisk.Store
	t *tracer
}

type tracedSyncStore struct {
	*tracedStore
	sync interface{ Sync() error }
}

func wrapStore(s vdisk.Store, t *tracer) vdisk.Store {
	ts := &tracedStore{s: s, t: t}
	if sy, ok := s.(interface{ Sync() error }); ok {
		return &tracedSyncStore{tracedStore: ts, sync: sy}
	}
	return ts
}

func (s *tracedStore) NumBlocks() int64 { return s.s.NumBlocks() }
func (s *tracedStore) BlockSize() int   { return s.s.BlockSize() }
func (s *tracedStore) Close() error     { return s.s.Close() }

func (s *tracedStore) ReadBlock(n int64, buf []byte) error {
	o, ok := s.t.enter(kStoreRead, false)
	err := s.s.ReadBlock(n, buf)
	s.t.leave(o, ok, int64(len(buf)))
	return err
}

func (s *tracedStore) WriteBlock(n int64, buf []byte) error {
	o, ok := s.t.enter(kStoreWrite, false)
	err := s.s.WriteBlock(n, buf)
	s.t.leave(o, ok, int64(len(buf)))
	return err
}

func (s *tracedSyncStore) Sync() error {
	o, ok := s.t.enter(kStoreSync, false)
	err := s.sync.Sync()
	s.t.leave(o, ok, 0)
	return err
}

// tracedView sits between stegdb and the HiddenView.
type tracedView struct {
	v stegdb.View
	t *tracer
}

func (v *tracedView) Create(name string, data []byte) error {
	o, ok := v.t.enter(kStegfsCreate, false)
	err := v.v.Create(name, data)
	v.t.leave(o, ok, int64(len(data)))
	return err
}

func (v *tracedView) ReadAt(name string, p []byte, off int64) (int, error) {
	o, ok := v.t.enter(kStegfsReadAt, false)
	n, err := v.v.ReadAt(name, p, off)
	v.t.leave(o, ok, int64(n))
	return n, err
}

func (v *tracedView) WriteAt(name string, p []byte, off int64) (int, error) {
	o, ok := v.t.enter(kStegfsWriteAt, false)
	n, err := v.v.WriteAt(name, p, off)
	v.t.leave(o, ok, int64(n))
	if ok && strings.HasSuffix(name, ".wal") {
		v.t.walBytes.Add(int64(n))
	}
	return n, err
}

func (v *tracedView) Resize(name string, newSize int64) error {
	o, ok := v.t.enter(kStegfsResize, false)
	err := v.v.Resize(name, newSize)
	v.t.leave(o, ok, 0)
	return err
}

func (v *tracedView) Stat(name string) (fsapi.FileInfo, error) {
	o, ok := v.t.enter(kStegfsStat, false)
	fi, err := v.v.Stat(name)
	v.t.leave(o, ok, 0)
	return fi, err
}

func (v *tracedView) Sync() error {
	o, ok := v.t.enter(kStegfsSync, false)
	err := v.v.Sync()
	v.t.leave(o, ok, 0)
	return err
}
