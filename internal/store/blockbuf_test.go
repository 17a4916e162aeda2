package store

import "testing"

// TestGrowBlockBuf pins how block buffers are sized and which are kept: a
// new buffer's capacity is its first length rounded up to 64 KiB, a buffer
// that is large enough is resliced in place, one too small is replaced,
// one above the largest wire frame is never kept, and at most
// maxSpareBlockBufs spares are, handed out again last in, first out.
func TestGrowBlockBuf(t *testing.T) {
	spares := func() []*[]byte {
		spareBlockBufs.mu.Lock()
		defer spareBlockBufs.mu.Unlock()
		return append([]*[]byte(nil), spareBlockBufs.bufs...)
	}
	drain := func() {
		spareBlockBufs.mu.Lock()
		spareBlockBufs.bufs = nil
		spareBlockBufs.mu.Unlock()
	}
	drain()
	t.Cleanup(drain)
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
	if got := spares(); len(got) != 0 {
		t.Fatalf("%d spares kept, want none: a buffer above the largest wire frame was kept", len(got))
	}

	var put []*[]byte
	for i := 0; i < maxSpareBlockBufs+1; i++ {
		put = append(put, GrowBlockBuf(nil, 64<<10))
	}
	for _, pb := range put {
		PutBlockBuf(pb)
	}
	if got := spares(); len(got) != maxSpareBlockBufs {
		t.Fatalf("%d spares kept, want %d", len(got), maxSpareBlockBufs)
	}
	if got := GrowBlockBuf(nil, 1); got != put[maxSpareBlockBufs-1] {
		t.Error("the most recently kept spare was not handed out first")
	}
	if got := GrowBlockBuf(nil, 128<<10); cap(*got) != 128<<10 || len(spares()) != maxSpareBlockBufs-2 {
		t.Errorf("a spare too small was not dropped for a new buffer: cap %d, %d spares left", cap(*got), len(spares()))
	}
}
