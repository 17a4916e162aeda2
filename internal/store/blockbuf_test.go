package store

import "testing"

// TestGrowBlockBuf pins how block buffers are sized and which are pooled:
// a new buffer's capacity is its first length rounded up to 64 KiB, a
// buffer that is large enough is resliced in place, one too small is
// replaced, and one above the largest wire frame never enters the pool.
func TestGrowBlockBuf(t *testing.T) {
	drain := func() {
		for blockBufs.Get() != nil {
		}
	}
	drain()
	for _, tc := range []struct{ n, wantCap int }{
		{1, 64 << 10},
		{64 << 10, 64 << 10},
		{64<<10 + 1, 128 << 10},
		{313_000, 320 << 10},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1<<20 + 64<<10},
	} {
		pb := GrowBlockBuf(nil, tc.n)
		if len(*pb) != tc.n || cap(*pb) != tc.wantCap {
			t.Errorf("GrowBlockBuf(nil, %d): len %d cap %d, want cap %d", tc.n, len(*pb), cap(*pb), tc.wantCap)
		}
	}

	pb := GrowBlockBuf(nil, 100_000)
	if again := GrowBlockBuf(pb, 120_000); again != pb || len(*pb) != 120_000 {
		t.Errorf("a large enough buffer was not resliced in place")
	}
	if bigger := GrowBlockBuf(pb, 200_000); bigger == pb || cap(*bigger) != 256<<10 {
		t.Errorf("a buffer too small was not replaced by one of 256 KiB: cap %d", cap(*bigger))
	}

	huge := GrowBlockBuf(nil, 1<<20+1)
	PutBlockBuf(huge)
	PutBlockBuf(nil)
	for x := blockBufs.Get(); x != nil; x = blockBufs.Get() {
		if x.(*[]byte) == huge {
			t.Fatal("a buffer above the largest wire frame was pooled")
		}
	}
}
