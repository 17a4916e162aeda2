package store

import "sync"

// Block buffers are what a stored block is read into on its way to a
// replay: a wire connection's read buffer for a frame too large for the
// connection's own, and a tracedb iterator's payload buffer. They come from
// one pool, so a replay reuses the buffers an earlier one handed back
// instead of growing its own to each block's exact size, twice per replay.
//
// A holder hands a buffer back only when no slice of it that it gave out
// can still be read: a wire connection at its next ReadFrame that needs no
// block buffer, an iterator once its blocks run out or it is released.

const (
	// blockBufStep is the granularity of a new block buffer's capacity.
	blockBufStep = 64 << 10
	// maxPooledBlockBuf is the largest block buffer the pool keeps: the
	// largest frame a wire connection reads (wire.MaxFrameSize, which this
	// package cannot name). A larger one, read only from a foreign store, is
	// garbage once dropped.
	maxPooledBlockBuf = 1 << 20
)

var blockBufs sync.Pool

// GrowBlockBuf returns a block buffer holding n bytes: pb resliced when its
// capacity suffices, else a pooled buffer large enough, else a new one whose
// capacity is n rounded up to a multiple of 64 KiB. A buffer too small for n
// is dropped, not pooled, so the pool's buffers grow to the largest block
// read. pb may be nil. The bytes are not zeroed.
func GrowBlockBuf(pb *[]byte, n int) *[]byte {
	if pb == nil || cap(*pb) < n {
		pb, _ = blockBufs.Get().(*[]byte)
		if pb == nil || cap(*pb) < n {
			pb = new([]byte)
			*pb = make([]byte, (n+blockBufStep-1)/blockBufStep*blockBufStep)
		}
	}
	*pb = (*pb)[:n]
	return pb
}

// PutBlockBuf hands pb back to the pool. A nil pb, or one larger than the
// largest wire frame, is dropped. The caller must have let go of every
// slice of it.
func PutBlockBuf(pb *[]byte) {
	if pb != nil && cap(*pb) <= maxPooledBlockBuf {
		blockBufs.Put(pb)
	}
}
