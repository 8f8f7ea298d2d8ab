package stegdb

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzDecodeBucket drives the bucket-chain codec's corruption paths: an
// adversarially mangled page must never panic the decoder, anything it
// accepts must survive an encode/decode round trip, and the in-place
// search (bucketFind) must accept exactly the same pages and find every
// key's first value.
func FuzzDecodeBucket(f *testing.F) {
	valid := make([]byte, PageSize)
	if err := encodeBucket(&bucketPage{
		next:    7,
		entries: []kv{{key: []byte("key-a"), val: []byte("val-a")}, {key: []byte("k"), val: nil}},
	}, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:bucketHdr])  // header only, zero entries claimed? (count=2, truncated)
	f.Add(valid[:PageSize/2]) // truncated mid-entries
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	lying := make([]byte, PageSize)
	binary.BigEndian.PutUint16(lying[8:], 0xffff) // claims 65535 entries
	f.Add(lying)
	huge := make([]byte, bucketHdr+4)
	binary.BigEndian.PutUint16(huge[8:], 1)
	binary.BigEndian.PutUint16(huge[bucketHdr:], 0xffff) // klen past the page
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		bp, err := decodeBucket(data)
		if _, _, _, ferr := bucketFind(data, nil); (ferr == nil) != (err == nil) {
			t.Fatalf("bucketFind err %v, decodeBucket err %v", ferr, err)
		}
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		// A few keys, not all: a lying count makes thousands of entries.
		for _, i := range []int{0, len(bp.entries) / 2, len(bp.entries) - 1} {
			if len(bp.entries) == 0 {
				break
			}
			key := bp.entries[i].key
			v, next, ok, err := bucketFind(data, key)
			first := slices.IndexFunc(bp.entries, func(o kv) bool { return bytes.Equal(o.key, key) })
			if err != nil || !ok || next != bp.next || !bytes.Equal(v, bp.entries[first].val) {
				t.Fatalf("bucketFind entry %d: %q ok=%v next=%d err=%v", i, v, ok, next, err)
			}
		}
		if bp.size() > len(data) {
			t.Fatalf("accepted bucket claims %d bytes from %d input", bp.size(), len(data))
		}
		if bp.size() > PageSize {
			return // can't re-encode into one page
		}
		buf := make([]byte, PageSize)
		if err := encodeBucket(bp, buf); err != nil {
			t.Fatalf("re-encode of accepted bucket failed: %v", err)
		}
		bp2, err := decodeBucket(buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if bp2.next != bp.next || len(bp2.entries) != len(bp.entries) {
			t.Fatalf("round trip mismatch: %d/%d entries", len(bp2.entries), len(bp.entries))
		}
		for i := range bp.entries {
			if !bytes.Equal(bp.entries[i].key, bp2.entries[i].key) ||
				!bytes.Equal(bp.entries[i].val, bp2.entries[i].val) {
				t.Fatalf("entry %d round trip mismatch", i)
			}
		}
	})
}
