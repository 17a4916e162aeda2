package store

import "sync"

// Block buffers are what a stored block is read into on its way to a
// replay: a wire connection's read buffer for a frame too large for the
// connection's own, and a tracedb iterator's payload buffer. Handed-back
// buffers wait in one short list, so a replay reuses the buffers an
// earlier one handed back instead of growing its own to each block's exact
// size, twice per replay, whichever goroutine or thread takes them.
//
// A holder hands a buffer back only when no slice of it that it gave out
// can still be read: a wire connection at its next ReadFrame that needs no
// block buffer, an iterator once its blocks run out or it is released.

const (
	// blockBufStep is the granularity of a new block buffer's capacity.
	blockBufStep = 64 << 10
	// maxSpareBlockBuf is the largest block buffer kept for reuse: the
	// largest frame a wire connection reads (wire.MaxFrameSize, which this
	// package cannot name). A larger one, read only from a foreign store, is
	// garbage once dropped.
	maxSpareBlockBuf = 1 << 20
	// maxSpareBlockBufs is how many handed-back buffers are kept: enough
	// for a few replays at once, each of which holds one or two. A process
	// therefore keeps at most 4 MiB of spares, and never gives them back.
	maxSpareBlockBufs = 4
)

var spareBlockBufs struct {
	mu   sync.Mutex
	bufs []*[]byte
}

// GrowBlockBuf returns a block buffer holding n bytes: pb resliced when its
// capacity suffices, else the most recently handed-back spare when it is
// large enough, else a new one whose capacity is n rounded up to a multiple
// of 64 KiB. A spare too small for n is dropped, so the spares grow to the
// largest block read. pb may be nil. The bytes are not zeroed.
func GrowBlockBuf(pb *[]byte, n int) *[]byte {
	if pb == nil || cap(*pb) < n {
		pb = nil
		s := &spareBlockBufs
		s.mu.Lock()
		if k := len(s.bufs); k > 0 {
			pb = s.bufs[k-1]
			s.bufs[k-1] = nil
			s.bufs = s.bufs[:k-1]
		}
		s.mu.Unlock()
		if pb == nil || cap(*pb) < n {
			pb = new([]byte)
			*pb = make([]byte, (n+blockBufStep-1)/blockBufStep*blockBufStep)
		}
	}
	*pb = (*pb)[:n]
	return pb
}

// PutBlockBuf hands pb back for reuse. A nil pb, one larger than the
// largest wire frame, or one that finds maxSpareBlockBufs spares already
// kept is dropped. The caller must have let go of every slice of it.
func PutBlockBuf(pb *[]byte) {
	if pb == nil || cap(*pb) > maxSpareBlockBuf {
		return
	}
	s := &spareBlockBufs
	s.mu.Lock()
	if len(s.bufs) < maxSpareBlockBufs {
		s.bufs = append(s.bufs, pb)
	}
	s.mu.Unlock()
}
