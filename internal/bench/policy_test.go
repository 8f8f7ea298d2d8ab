package bench

import "testing"

// TestPolicySweepShape pins the acceptance shape of the A4b ablation: at a
// sub-working-set capacity the scan+hot workload leaves LRU at ~1.0x over
// the uncached baseline, while 2Q keeps the hot metadata resident and
// clears 1.5x.
func TestPolicySweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy sweep in -short mode")
	}
	cfg := SmallConfig()
	rows, err := PolicySweep(cfg, nil, []int{256}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // uncached + {lru, 2q} x {256}
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	byPolicy := make(map[string]PolicyRow)
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	base := byPolicy["uncached"]
	if base.CacheBlocks != 0 || base.Seconds <= 0 {
		t.Fatalf("baseline row malformed: %+v", base)
	}
	lru, twoQ := byPolicy["lru"], byPolicy["2q"]
	t.Logf("cap=256: lru=%.2fx (%.1f%%)  2q=%.2fx (%.1f%%)",
		lru.Speedup, lru.HitRate*100, twoQ.Speedup, twoQ.HitRate*100)
	if lru.Speedup > 1.1 {
		t.Errorf("LRU speedup %.2fx at cap 256; the thrash regime no longer thrashes LRU", lru.Speedup)
	}
	if twoQ.Speedup < 1.5 {
		t.Errorf("2Q speedup %.2fx at cap 256, want >= 1.5x", twoQ.Speedup)
	}
}
