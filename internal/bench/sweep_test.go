package bench

import "testing"

// TestSweepScalesAndKeepsDiskCost asserts the acceptance shape of every
// concurrency ablation at a reduced size: wall-clock throughput must rise
// with goroutines (the emulated device waits overlap instead of
// serializing), and the simulated-disk cost of a level must stay
// essentially unchanged — concurrency buys wall time, it does not re-price
// the device. A7 must also reach the device through batched flush
// submissions rather than per-block writes.
func TestSweepScalesAndKeepsDiskCost(t *testing.T) {
	cases := []struct {
		name    string
		w       Workload
		batched bool // write-backs must ride in multi-block flush batches
	}{
		{"A5-read", ReadWorkload(64), false},
		{"A6-write", WriteWorkload(), false},
		{"A7-cached-write", CachedWriteWorkload(), true},
		{"A8-stegdb", StegDBWorkload(64), false},
		{"A9-stegdb-write", StegDBWriteWorkload(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, report, err := Sweep(SmallConfig(), tc.w, []int{1, 4}, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if report.Groups == 0 || report.Allocs == 0 {
				t.Fatalf("empty allocator report: %+v", report)
			}
			if len(rows) != 2 {
				t.Fatalf("got %d rows", len(rows))
			}
			for _, r := range rows {
				if r.OpsPerSec <= 0 || r.WallSeconds <= 0 {
					t.Fatalf("degenerate row: %+v", r)
				}
				if r.DiskSeconds <= 0 {
					t.Fatalf("window consumed no simulated disk time: %+v", r)
				}
				if !tc.batched {
					continue
				}
				if r.WriteBacks == 0 || r.FlushBatches == 0 {
					t.Fatalf("window recorded no batched write-backs: %+v", r)
				}
				if r.FlushBatches >= r.WriteBacks {
					t.Fatalf("flushes not batched: %d submissions for %d blocks", r.FlushBatches, r.WriteBacks)
				}
			}
			if rows[1].Speedup < 1.5 {
				t.Errorf("4 goroutines speedup %.2fx, want >= 1.5x (emulated waits should overlap)", rows[1].Speedup)
			}
			ratio := rows[1].DiskSeconds / rows[0].DiskSeconds
			if ratio < 0.8 || ratio > 1.25 {
				t.Errorf("simulated-disk cost moved %.2fx across levels; concurrency must not re-price the device", ratio)
			}
		})
	}
}

// TestSweepRejectsSplitTiles pins the tiling guard: a level whose chunk
// boundaries would split one object's ops across goroutines is refused
// before any volume is built.
func TestSweepRejectsSplitTiles(t *testing.T) {
	if _, _, err := Sweep(SmallConfig(), WriteWorkload(), []int{3}, 0.25); err == nil {
		t.Fatal("level 3 splits 4-op tiles but was accepted")
	}
	if _, _, err := Sweep(SmallConfig(), WriteWorkload(), []int{0}, 0.25); err == nil {
		t.Fatal("level 0 was accepted")
	}
}
