package main

import (
	"path/filepath"
	"testing"

	"stegfs/internal/stegdb"
	"stegfs/internal/stegfs"
	"stegfs/internal/vdisk"
)

var _ stegdb.View = (*tracedView)(nil)

// The program type-asserts its devices and stores on these interfaces
// (vdisk.ReadBlocks/WriteBlocks on BatchDevice, blockcache.Cache.Sync and
// Close and the vdisk fault layers on Sync and Close). A decorator must
// answer each assertion as the value it wraps does, or the traced run would
// take other code paths than the measured one.
func assertsLike(t *testing.T, what string, got, want any) {
	t.Helper()
	checks := []struct {
		name string
		ok   func(any) bool
	}{
		{"vdisk.Device", func(v any) bool { _, ok := v.(vdisk.Device); return ok }},
		{"vdisk.BatchDevice", func(v any) bool { _, ok := v.(vdisk.BatchDevice); return ok }},
		{"Sync", func(v any) bool { _, ok := v.(interface{ Sync() error }); return ok }},
		{"Close", func(v any) bool { _, ok := v.(interface{ Close() error }); return ok }},
	}
	for _, c := range checks {
		if g, w := c.ok(got), c.ok(want); g != w {
			t.Errorf("%s: implements %s = %v, the wrapped value %v", what, c.name, g, w)
		}
	}
}

func TestDecoratorMethodSets(t *testing.T) {
	tr := newTracer(0)
	mem, err := vdisk.NewMemStore(64, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	file, err := vdisk.CreateFileStore(filepath.Join(t.TempDir(), "vol.img"), 64, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	disk := vdisk.NewDisk(mem, vdisk.DefaultGeometry())
	assertsLike(t, "tracedDevice", &tracedDevice{dev: disk, t: tr}, disk)
	assertsLike(t, "traced MemStore", wrapStore(mem, tr), mem)
	assertsLike(t, "traced FileStore", wrapStore(file, tr), file)
}

// TestTracingChangesNothing runs each workload with one client for a fixed
// number of operations, untraced and traced, and requires the program's own
// counters to match exactly. Write-behind runs in the writing goroutine
// here: a background flusher's timing would make even two untraced runs
// differ.
func TestTracingChangesNothing(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var got [2]counters
			for i, tr := range []*tracer{nil, newTracer(1000)} {
				e := env{seed: 7, clients: 1, dir: t.TempDir(), small: true}
				w, err := newWorkload(name, e)
				if err != nil {
					t.Fatal(err)
				}
				if cw, ok := w.(*churn); ok {
					err = cw.setupWith(tr, stegfs.WithWriteBehind(cw.z.writeBehind, -1))
				} else {
					err = w.setup(tr)
				}
				if err != nil {
					t.Fatal(err)
				}
				win := measure(w, e, tr, 0, 300)
				got[i] = w.vol().counters()
				r, err := finish(w, win)
				if err != nil {
					t.Fatal(err)
				}
				w.close()
				if r.failed != 0 {
					t.Fatalf("trace=%v: %d of %d operations and checks failed", tr != nil, r.failed, r.attempted)
				}
				if tr != nil && win.trace.fg[kDiskRead].n+win.trace.fg[kDiskWrite].n+win.trace.bg[kFlush].n == 0 && name != "hidden-read-hot" {
					t.Errorf("traced run recorded no device spans")
				}
			}
			if got[0] != got[1] {
				t.Errorf("counters differ:\nuntraced %+v\ntraced   %+v", got[0], got[1])
			}
		})
	}
}

func TestCurgIdentifiesGoroutine(t *testing.T) {
	self := curg()
	if curg() != self {
		t.Fatal("curg changed within one goroutine")
	}
	other := make(chan uintptr)
	go func() { other <- curg() }()
	if <-other == self {
		t.Fatal("two live goroutines share an identity")
	}
}
