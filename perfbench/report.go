package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// endToEndNames are the metrics an untraced run reports: the end-to-end
// metrics that every workload defines and that are never 0. The table also
// prints the workload-specific ones (write and sync latency, simulated disk
// time, write amplification, failure fraction).
var endToEndNames = []string{
	"setup_s", "ops_per_s", "user_mb_per_s", "read_p50_us", "read_p99_us", "mem_peak_mb", "space_amp",
}

// perLayerNames are the metrics a traced run reports.
var perLayerNames = []string{
	"stegdb.self_us_per_op", "stegdb.view_calls_per_op", "stegdb.view_write_bytes_per_put",
	"stegdb.wal_bytes_per_sync", "stegdb.view_syncs_per_commit", "stegdb.sync_ms", "stegdb.sync_self_ms",
	"stegdb.bytes_per_row",
	"stegfs.self_us_per_call", "stegfs.readat_us", "stegfs.writeat_us", "stegfs.sync_ms", "stegfs.sync_self_ms",
	"alloc.allocs_per_op", "alloc.frees_per_op", "alloc.contended_frac",
	"blockcache.hit_rate", "blockcache.misses_per_op", "blockcache.evictions_per_op",
	"blockcache.writebacks_per_op", "blockcache.blocks_per_flush_batch", "blockcache.write_behinds",
	"blockcache.flush_stalls",
	"vdisk.disk.calls_per_op", "vdisk.disk.blocks_per_call", "vdisk.disk.fg_busy_ms_per_op",
	"vdisk.disk.bg_busy_ms_per_op", "vdisk.disk.sim_ms_per_op", "vdisk.disk.seeks_per_op",
	"vdisk.disk.seq_hit_frac", "vdisk.disk.write_amp",
	"vdisk.store.calls_per_sync", "vdisk.store.busy_us_per_op", "vdisk.store.bytes_written_per_op",
	"vdisk.store.fsyncs_per_commit",
	"go.allocs_per_op", "go.gc_cpu_frac", "go.cpu_us_per_op",
	"trace.overhead_frac",
}

// report is one window's results.
type report struct {
	win                   *window
	ops                   int64 // completed operations
	attempted, failed     int64
	readBytes, writeBytes int64
	lat                   [numClasses][]time.Duration // sorted
	rows                  int64                       // live stegdb rows, for bytes_per_row
	setupS                float64
	spaceAmp              float64
	spaceBytes            int64 // occupied hidden bytes
	overhead              float64
}

func newReport(win *window) *report {
	r := &report{win: win}
	for _, c := range win.clients {
		r.attempted += c.attempted
		r.failed += c.failed
		r.readBytes += c.readBytes
		r.writeBytes += c.writeBytes
		for cl := range c.lat {
			r.lat[cl] = append(r.lat[cl], c.lat[cl]...)
		}
	}
	r.ops = r.attempted - r.failed
	for cl := range r.lat {
		slices.Sort(r.lat[cl])
	}
	return r
}

func (r *report) opsPerS() float64 { return float64(r.ops) / r.win.secs }

// quantile is the nearest-rank q-quantile of a class's latencies, in the
// given unit; NaN when the class has no samples.
func (r *report) quantile(cl class, q float64, unit time.Duration) float64 {
	s := r.lat[cl]
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(unit)
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nanRatio is a/b, NaN when b is 0 (an end-to-end metric the workload does
// not define).
func nanRatio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

type named struct {
	name, unit string
	value      float64
}

// percentiles are the latency metrics medians pools over windows.
var percentiles = []string{"read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us", "sync_p50_ms", "sync_p90_ms"}

// endToEnd returns all end-to-end metrics; NaN marks one the workload does
// not define.
func (r *report) endToEnd() []named {
	ops := float64(r.ops)
	d := r.win.delta
	return []named{
		{"setup_s", "s", r.setupS},
		{"ops_per_s", "1/s", r.opsPerS()},
		{"user_mb_per_s", "MB/s", float64(r.readBytes+r.writeBytes) / 1e6 / r.win.secs},
		{"read_p50_us", "us", r.quantile(classRead, 0.50, time.Microsecond)},
		{"read_p99_us", "us", r.quantile(classRead, 0.99, time.Microsecond)},
		{"write_p50_us", "us", r.quantile(classWrite, 0.50, time.Microsecond)},
		{"write_p99_us", "us", r.quantile(classWrite, 0.99, time.Microsecond)},
		{"sync_p50_ms", "ms", r.quantile(classSync, 0.50, time.Millisecond)},
		{"sync_p90_ms", "ms", r.quantile(classSync, 0.90, time.Millisecond)},
		{"disk_ms_per_op", "ms", nanRatio(float64(d.elapsed)/1e6, ops)},
		{"write_amp", "ratio", nanRatio(float64(d.disk.BytesWritten), float64(r.writeBytes))},
		{"space_amp", "ratio", r.spaceAmp},
		{"fail_frac", "ratio", float64(r.failed) / float64(r.attempted)},
		{"mem_peak_mb", "MB", float64(r.win.heapPeak) / 1e6},
	}
}

// perLayer returns the traced window's per-layer metrics. Per-op values are
// normalised by completed operations; a layer the workload does not reach
// reads 0.
func (r *report) perLayer() []named {
	t := r.win.trace
	fg, bg := &t.fg, &t.bg
	ops := float64(r.ops)
	d := r.win.delta
	syncs := float64(len(r.lat[classSync]))
	sum := func(a *[numKinds]agg, layer string, f func(agg) int64) float64 {
		var s int64
		for k := range a {
			if kinds[k].layer == layer {
				s += f(a[k])
			}
		}
		return float64(s)
	}
	n := func(a agg) int64 { return a.n }
	dur := func(a agg) int64 { return a.dur }
	self := func(a agg) int64 { return a.self }
	both := func(k kind, f func(agg) int64) float64 { return float64(f(fg[k]) + f(bg[k])) }
	mean := func(a agg, f func(agg) int64, unit float64) float64 {
		return ratio(float64(f(a)), float64(a.n)) / unit
	}
	var viewCalls float64 // the stegfs spans are stegdb's View calls only when stegdb ran
	if rootLayer(t) == layerStegdb {
		viewCalls = sum(fg, layerStegfs, n)
	}
	puts := float64(fg[kStegdbPut].n + fg[kStegdbDelPut].n)
	commits := float64(fg[kStegdbSync].n)
	diskCalls := float64(fg[kDiskRead].n + fg[kDiskWrite].n + bg[kFlush].n)
	diskBlocks := float64(fg[kDiskRead].units + fg[kDiskWrite].units + bg[kFlush].units)
	storeCalls := both(kStoreRead, n) + both(kStoreWrite, n)
	storeBusy := both(kStoreRead, dur) + both(kStoreWrite, dur) + both(kStoreSync, dur)
	return []named{
		{"stegdb.self_us_per_op", "us", ratio(sum(fg, layerStegdb, self), ops) / 1e3},
		{"stegdb.view_calls_per_op", "count", ratio(viewCalls, ops)},
		{"stegdb.view_write_bytes_per_put", "B", ratio(float64(fg[kStegfsWriteAt].units), puts)},
		{"stegdb.wal_bytes_per_sync", "B", ratio(float64(r.win.walBytes), commits)},
		{"stegdb.view_syncs_per_commit", "count", ratio(float64(fg[kStegfsSync].n), commits)},
		{"stegdb.sync_ms", "ms", mean(fg[kStegdbSync], dur, 1e6)},
		{"stegdb.sync_self_ms", "ms", mean(fg[kStegdbSync], self, 1e6)},
		{"stegdb.bytes_per_row", "B", ratio(float64(r.spaceBytes), float64(r.rows))},
		{"stegfs.self_us_per_call", "us", ratio(sum(fg, layerStegfs, self), sum(fg, layerStegfs, n)) / 1e3},
		{"stegfs.readat_us", "us", mean(fg[kStegfsReadAt], dur, 1e3)},
		{"stegfs.writeat_us", "us", mean(fg[kStegfsWriteAt], dur, 1e3)},
		{"stegfs.sync_ms", "ms", mean(fg[kStegfsSync], dur, 1e6)},
		{"stegfs.sync_self_ms", "ms", mean(fg[kStegfsSync], self, 1e6)},
		{"alloc.allocs_per_op", "count", ratio(float64(d.alloc.Allocs), ops)},
		{"alloc.frees_per_op", "count", ratio(float64(d.alloc.Frees), ops)},
		{"alloc.contended_frac", "ratio", ratio(float64(d.alloc.Contended), float64(d.alloc.Locks))},
		{"blockcache.hit_rate", "ratio", d.cache.HitRate()},
		{"blockcache.misses_per_op", "count", ratio(float64(d.cache.Misses), ops)},
		{"blockcache.evictions_per_op", "count", ratio(float64(d.cache.Evictions), ops)},
		{"blockcache.writebacks_per_op", "count", ratio(float64(d.cache.WriteBacks), ops)},
		{"blockcache.blocks_per_flush_batch", "count", ratio(float64(d.cache.WriteBacks), float64(d.cache.FlushBatches))},
		{"blockcache.write_behinds", "count", float64(d.cache.WriteBehinds)},
		{"blockcache.flush_stalls", "count", float64(d.cache.FlushStalls)},
		{"vdisk.disk.calls_per_op", "count", ratio(diskCalls, ops)},
		{"vdisk.disk.blocks_per_call", "count", ratio(diskBlocks, diskCalls)},
		{"vdisk.disk.fg_busy_ms_per_op", "ms", ratio(sum(fg, layerDisk, dur), ops) / 1e6},
		{"vdisk.disk.bg_busy_ms_per_op", "ms", ratio(float64(bg[kFlush].dur), ops) / 1e6},
		{"vdisk.disk.sim_ms_per_op", "ms", ratio(float64(d.elapsed)/1e6, ops)},
		{"vdisk.disk.seeks_per_op", "count", ratio(float64(d.disk.Seeks), ops)},
		{"vdisk.disk.seq_hit_frac", "ratio", ratio(float64(d.disk.SeqHits), float64(d.disk.SeqHits+d.disk.Seeks))},
		{"vdisk.disk.write_amp", "ratio", ratio(float64(d.disk.BytesWritten), float64(r.writeBytes))},
		{"vdisk.store.calls_per_sync", "count", ratio(storeCalls, syncs)},
		{"vdisk.store.busy_us_per_op", "us", ratio(storeBusy, ops) / 1e3},
		{"vdisk.store.bytes_written_per_op", "B", ratio(both(kStoreWrite, func(a agg) int64 { return a.units }), ops)},
		{"vdisk.store.fsyncs_per_commit", "count", ratio(both(kStoreSync, n), syncs)},
		{"go.allocs_per_op", "count", ratio(float64(r.win.rt.allocs), ops)},
		{"go.gc_cpu_frac", "ratio", ratio(r.win.rt.gcCPU, r.win.rt.cpu.Seconds())},
		{"go.cpu_us_per_op", "us", ratio(float64(r.win.rt.cpu.Microseconds()), ops)},
		{"trace.overhead_frac", "ratio", r.overhead},
	}
}

// medians combines the end-to-end metrics of several windows: latency
// percentiles over all the windows' samples pooled, every other metric the
// median of its per-window values.
func medians(reports []*report) []named {
	pooled := &report{win: reports[0].win}
	for _, r := range reports {
		for cl := range r.lat {
			pooled.lat[cl] = append(pooled.lat[cl], r.lat[cl]...)
		}
	}
	for cl := range pooled.lat {
		slices.Sort(pooled.lat[cl])
	}
	latency := pooled.endToEnd()
	var out []named
	for i, m := range reports[0].endToEnd() {
		if slices.Contains(percentiles, m.name) {
			out = append(out, latency[i])
			continue
		}
		var vs []float64
		for _, r := range reports {
			if v := r.endToEnd()[i].value; !math.IsNaN(v) {
				vs = append(vs, v)
			}
		}
		m.value = math.NaN()
		if len(vs) > 0 {
			m.value = median(vs)
		}
		out = append(out, m)
	}
	return out
}

// printWindow prints one window's operation counts and latencies.
func printWindow(name string, e env, r *report) {
	mode := "untraced"
	if r.win.trace != nil {
		mode = "traced"
	}
	fmt.Printf("%s seed=%d clients=%d %s setup=%.3fs window=%.2fs ops=%d ops/s=%.1f failed=%d/%d\n",
		name, e.seed, e.clients, mode, r.setupS, r.win.secs, r.ops, r.opsPerS(), r.failed, r.attempted)
	for cl, label := range []string{"read", "write", "sync", "other"} {
		if n := len(r.lat[cl]); n > 0 {
			fmt.Printf("  %-6s %8d samples  p50 %10.1f us  p99 %10.1f us\n", label, n,
				r.quantile(class(cl), 0.50, time.Microsecond), r.quantile(class(cl), 0.99, time.Microsecond))
		}
	}
}

// printMetrics prints named metrics, n/a for one the workload does not define.
func printMetrics(title string, ms []named) {
	fmt.Println(title)
	for _, m := range ms {
		if math.IsNaN(m.value) {
			fmt.Printf("  %-34s %14s\n", m.name, "n/a")
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}

// printBreakdown prints where the clients' time went: each layer's self time
// as a share of the time the clients spent inside operations, and the
// flushers' background device time beside it.
func printBreakdown(r *report) {
	t := r.win.trace
	root := rootLayer(t)
	var total int64
	for k := range t.fg {
		if kinds[k].layer == root {
			total += t.fg[k].dur
		}
	}
	fmt.Printf("self time by layer, share of %.1f ms client op time:\n", float64(total)/1e6)
	for _, layer := range []string{layerStegdb, layerStegfs, layerDisk, layerStore} {
		var self int64
		for k := range t.fg {
			if kinds[k].layer == layer {
				self += t.fg[k].self
			}
		}
		fmt.Printf("  %-18s %12.1f ms %6.1f%%\n", layer, float64(self)/1e6, 100*ratio(float64(self), float64(total)))
	}
	var bgStore int64
	for _, k := range []kind{kStoreRead, kStoreWrite, kStoreSync} {
		bgStore += t.bg[k].dur
	}
	fmt.Printf("  background %s: %.1f ms in %d calls (%.1f ms of it in %s)\n",
		layerFlush, float64(t.bg[kFlush].dur)/1e6, t.bg[kFlush].n, float64(bgStore)/1e6, layerStore)
	fmt.Println("  self time split by operation (share of the operations' time):")
	for root := range t.byRoot {
		if kinds[root].layer != rootLayer(t) || t.fg[root].n == 0 {
			continue
		}
		fmt.Printf("    %-22s mean %10s:", kinds[root].name, time.Duration(t.fg[root].dur/t.fg[root].n))
		for _, layer := range []string{layerStegdb, layerStegfs, layerDisk, layerStore} {
			var self int64
			for k, ns := range t.byRoot[root] {
				if kinds[k].layer == layer {
					self += ns
				}
			}
			if self > 0 {
				fmt.Printf(" %s %.1f%%", layer, 100*float64(self)/float64(t.fg[root].dur))
			}
		}
		fmt.Println()
	}
	fmt.Printf("  spans by kind (count, mean):\n")
	for k := range t.fg {
		a := t.fg[k]
		a.add(t.bg[k])
		if a.n > 0 {
			fmt.Printf("    %-22s %9d %12s\n", kinds[k].name, a.n, time.Duration(a.dur/a.n))
		}
	}
	fmt.Printf("tracing overhead: ops_per_s %+.1f%% traced vs untraced\n", 100*r.overhead)
}

// rootLayer is the layer whose spans are the clients' operations: stegdb on
// stegdb-commit, stegfs on the hidden-file workloads.
func rootLayer(t *traceSum) string {
	for k := range t.fg {
		if kinds[k].layer == layerStegdb && t.fg[k].n > 0 {
			return layerStegdb
		}
	}
	return layerStegfs
}
