package stegdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
)

// FuzzNodeInPlace is the differential test of the in-place node reader:
// for any page bytes and any key, nodeStep (the step every descent takes)
// and the leaf walk the iterators do must agree with decodeNode plus the
// copy-and-decode search logic — same next page, same found/value, same
// entries — or both must reject the page. Neither may panic.
func FuzzNodeInPlace(f *testing.F) {
	enc := func(n *node) []byte {
		buf := make([]byte, PageSize)
		if err := encodeNode(n, buf); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	leaf := &node{leaf: true, right: 9, entries: []kv{
		{key: []byte("apple"), val: []byte("red")},
		{key: []byte("kiwi"), val: nil},
		{key: []byte("pear"), val: []byte("green")},
	}}
	leafHigh := &node{leaf: true, right: 9, high: []byte("plum"), entries: leaf.entries}
	internal := &node{level: 1, keys: [][]byte{[]byte("g"), []byte("m"), []byte("t")},
		children: []int64{3, 4, 5, 6}}
	internalHigh := &node{level: 2, right: 11, high: []byte("x"), keys: internal.keys,
		children: internal.children}
	full := &node{leaf: true}
	for i := 0; full.encodedSize()+4+8+100 <= PageSize; i++ {
		full.entries = append(full.entries, kv{key: []byte(fmt.Sprintf("k%07d", i)),
			val: bytes.Repeat([]byte{byte(i)}, 100)})
	}
	fullInternal := &node{level: 1, children: []int64{2}}
	for i := 0; fullInternal.encodedSize()+2+8+8 <= PageSize; i++ {
		fullInternal.keys = append(fullInternal.keys, []byte(fmt.Sprintf("s%07d", i)))
		fullInternal.children = append(fullInternal.children, int64(i+3))
	}
	pages := [][]byte{enc(leaf), enc(leafHigh), enc(internal), enc(internalHigh),
		enc(full), enc(fullInternal), enc(&node{leaf: true})}
	lyingCount := enc(leaf)
	binary.BigEndian.PutUint16(lyingCount[2:], 0xffff)
	lyingKey := enc(leaf)
	binary.BigEndian.PutUint16(lyingKey[nodeHdr:], 0xffff)
	lyingHigh := enc(leafHigh)
	binary.BigEndian.PutUint16(lyingHigh[12:], PageSize)
	lyingSep := enc(internal)
	binary.BigEndian.PutUint16(lyingSep[nodeHdr+8:], PageSize-nodeHdr-10)
	badType := enc(leaf)
	badType[0] = 7
	pages = append(pages, lyingCount, lyingKey, lyingHigh, lyingSep, badType, nil)
	for _, p := range pages {
		for _, k := range []string{"", "apple", "kiwi", "m", "pear", "plum", "zzz", "k0000003", "s0000100"} {
			f.Add(p, []byte(k))
		}
	}

	f.Fuzz(func(t *testing.T, data, key []byte) {
		page := make([]byte, PageSize)
		copy(page, data)
		s, err := nodeStep(page, key)
		n, derr := decodeNode(append([]byte(nil), page...))
		if (err == nil) != (derr == nil) {
			t.Fatalf("nodeStep err %v, decodeNode err %v", err, derr)
		}
		if err != nil {
			return
		}
		if s.leaf != n.leaf || s.level != n.level || s.right != n.right || s.end != n.encodedSize() {
			t.Fatalf("header: step %+v, decoded leaf=%v level=%d right=%d size=%d",
				s.nodeHeader, n.leaf, n.level, n.right, n.encodedSize())
		}
		switch {
		case !n.covers(key):
			if !s.movedRight || s.next != n.right || s.found {
				t.Fatalf("key %q past high %q: step moved=%v next=%d found=%v", key, n.high, s.movedRight, s.next, s.found)
			}
		case s.movedRight:
			t.Fatalf("key %q covered by high %q but step moved right", key, n.high)
		case n.leaf:
			var want []byte
			found := false
			for _, e := range n.entries {
				if bytes.Equal(e.key, key) {
					want, found = e.val, true
					break
				}
			}
			if s.found != found || !bytes.Equal(s.val, want) {
				t.Fatalf("leaf lookup %q: step %v/%q, decoded %v/%q", key, s.found, s.val, found, want)
			}
		default:
			if want := n.children[childIndex(n.keys, key)]; s.next != want {
				t.Fatalf("child for %q: step %d, decoded %d", key, s.next, want)
			}
		}
		if !n.leaf {
			return
		}
		// The iterators walk a prefix copy of the leaf, up to s.end.
		prefix := append([]byte(nil), page[:s.end]...)
		off := s.body
		for i, e := range n.entries {
			k, v, next, err := leafEntry(prefix, off)
			if err != nil || !bytes.Equal(k, e.key) || !bytes.Equal(v, e.val) {
				t.Fatalf("entry %d of the leaf copy: %q=%q (%v), decoded %q=%q", i, k, v, err, e.key, e.val)
			}
			off = next
		}
	})
}

// newAllocTable builds a hash-indexed table whose tree has internal nodes,
// with every page warm in the pager cache.
func newAllocTable(t *testing.T) *Table {
	t.Helper()
	view, _ := newView(t, 16<<10)
	tbl, err := CreateTable(view, "allocs", true, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		if err := tbl.Put(rowKey(i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := tbl.tree.Height(); err != nil || h < 2 {
		t.Fatalf("tree height %d (%v), want internal nodes", h, err)
	}
	if err := tbl.Check(); err != nil { // warms every tree and bucket page
		t.Fatal(err)
	}
	return tbl
}

func rowKey(i int) []byte { return []byte(fmt.Sprintf("row%05d", i)) }

// leavesVisited counts the leaves a Range over [lo, hi) of ts reads: the
// one lo descends to, then each right sibling until one holds a key >= hi.
func leavesVisited(t *testing.T, ts *TreeSnapshot, lo, hi []byte) int {
	t.Helper()
	src := pageSource{snap: ts.s}
	id, _, err := descend(src, ts.root, lo, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for id != nilPage {
		leaves++
		past := false
		err := src.viewPage(id, func(buf []byte) error {
			s, err := nodeStep(buf, nil)
			off := s.body
			for i := 0; err == nil && i < s.count; i++ {
				var k []byte
				k, _, off, err = leafEntry(buf, off)
				past = past || bytes.Compare(k, hi) >= 0
			}
			id = s.right
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if past {
			break
		}
	}
	return leaves
}

// TestStegDBReadAllocFree gates the Go heap allocations of stegdb's read
// path on a warm pager: a tree descent allocates nothing, a point Get only
// its returned value, and a Range one iterator plus one private copy per
// leaf it visits — never one allocation per entry.
func TestStegDBReadAllocFree(t *testing.T) {
	tbl := newAllocTable(t)
	key := rowKey(417)
	live := pageSource{pg: tbl.pg}
	root := tbl.tree.root()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	if a := testing.AllocsPerRun(200, func() {
		_, _, err := descend(live, root, key, 0, nil, nil)
		must(err)
	}); a != 0 {
		t.Errorf("tree descent: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		var buf [8]int64
		_, stack, err := descend(live, root, key, 0, buf[:0], nil)
		must(err)
		if len(stack) == 0 {
			t.Fatal("writer descent recorded no ancestors")
		}
	}); a != 0 {
		t.Errorf("writer descent with ancestor stack: %.1f allocs/op, want 0", a)
	}
	for name, get := range map[string]func([]byte) ([]byte, bool, error){
		"BTree.Get":     tbl.tree.Get,
		"HashIndex.Get": tbl.hash.Get,
	} {
		if a := testing.AllocsPerRun(200, func() {
			v, ok, err := get(key)
			must(err)
			if !ok || len(v) != 100 || v[0] != byte(417%256) {
				t.Fatalf("%s returned %v/%d bytes", name, ok, len(v))
			}
		}); a > 1 {
			t.Errorf("%s: %.1f allocs/op, want <= 1 (the returned value)", name, a)
		}
	}

	ts := tbl.Snapshot()
	defer ts.Close()
	lo, hi := rowKey(300), rowKey(332)
	leaves := leavesVisited(t, ts, lo, hi)
	rows := 0
	count := func(_, _ []byte) bool { rows++; return true }
	a := testing.AllocsPerRun(100, func() {
		rows = 0
		must(ts.Range(lo, hi, count))
	})
	if rows != 32 {
		t.Fatalf("Range returned %d rows, want 32", rows)
	}
	t.Logf("32-row Range over %d leaves: %.1f allocs/op", leaves, a)
	if bound := float64(1 + leaves); a > bound {
		t.Errorf("32-row Range over %d leaves: %.1f allocs/op, want <= %.0f (iterator + one copy per leaf)", leaves, a, bound)
	}
}

// TestStegDBRangeCallbackMayWrite pins that Range and Scan callbacks run
// outside every page latch: a callback that overwrites and deletes rows in
// the very leaf being read must not deadlock, and the scan still sees its
// snapshot.
func TestStegDBRangeCallbackMayWrite(t *testing.T) {
	view, _ := newView(t, 16<<10)
	tbl, err := CreateTable(view, "cb", true, 32)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := CreatePartitionedTable(view, "cbp", 2, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	type table interface {
		Put(key, val []byte) error
		Delete(key []byte) (bool, error)
		Range(lo, hi []byte, fn func(key, val []byte) bool) error
		Scan(fn func(key, val []byte) bool) error
		Check() error
	}
	for name, tb := range map[string]table{"plain": tbl, "partitioned": pt} {
		for i := 0; i < 60; i++ {
			if err := tb.Put(rowKey(i), []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() {
			seen := 0
			var werr error
			rerr := tb.Range(rowKey(10), rowKey(40), func(k, v []byte) bool {
				seen++
				if string(v) != "v0" {
					werr = fmt.Errorf("range saw %q=%q, not its snapshot", k, v)
					return false
				}
				werr = tb.Put(k, []byte("v1"))
				if werr == nil {
					_, werr = tb.Delete(append(k[:len(k):len(k)], '+'))
				}
				return werr == nil
			})
			if err := errors.Join(rerr, werr); err != nil || seen != 30 {
				done <- fmt.Errorf("range: %d rows, %v", seen, err)
				return
			}
			seen = 0
			serr := tb.Scan(func(k, _ []byte) bool {
				seen++
				if werr = tb.Put(append(k[:len(k):len(k)], '+'), []byte("x")); werr == nil {
					_, werr = tb.Delete(k)
				}
				return werr == nil
			})
			if err := errors.Join(serr, werr); err != nil || seen != 60 {
				done <- fmt.Errorf("scan: %d rows, %v", seen, err)
				return
			}
			done <- tb.Check()
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: a Range/Scan callback writing the table deadlocked", name)
		}
	}
}
