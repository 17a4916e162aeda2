package stream

import (
	"rad/internal/store"
	"rad/internal/tracedb"
)

// Tail is a snapshot-then-follow subscription: it replays every matching
// record already committed to a tracedb store (in sequence order), then
// switches to the live feed with no gaps and no duplicates.
//
// The handoff invariant rests on two orderings:
//
//  1. The subscriber registers with the broker BEFORE the snapshot is
//     planned, so every record committed after registration is buffered in
//     its ring while the snapshot drains.
//  2. The store's commit hook publishes a record only once it is visible to
//     readers, so every record the subscriber missed (published before
//     registration) is guaranteed to be in the snapshot.
//
// Records committed in the window between registration and the snapshot plan
// appear in both; Recv discards them by comparing sequence numbers against
// the snapshot boundary. Use the Block policy for a lossless tail (the
// gap-free guarantee); under DropOldest a tail that falls behind loses live
// events like any other subscriber, with the loss counted.
type Tail struct {
	sub      *Subscriber
	it       *tracedb.Iterator
	boundary uint64 // highest snapshot seq + 1; live events below it are duplicates
	dups     uint64
}

// Tail opens a snapshot-then-follow subscription over db. Call Snapshot to
// drain the historical records, then Recv for live events; Close when done.
// A nil db opens a plain live tail: Snapshot replays nothing.
func (b *Broker) Tail(db *tracedb.DB, opts SubOptions) *Tail {
	t := &Tail{sub: b.Subscribe(opts)} // 1: live events start buffering now
	if db != nil {
		t.it = db.Scan(opts.Filter) // 2: snapshot covers everything committed before 1
	}
	return t
}

// Snapshot streams every historical record (already filtered, in sequence
// order) and records the live-handoff boundary. A block whose every record
// the planner's index metadata proves to match goes to block whole, as its
// stored payload — a store block, undecoded (store.BlockReader reads it).
// Every other record goes to rec: those of blocks the subscription matches
// only in part, or not provably in full (the one holding a resume point),
// and the staged tail. Both arguments point into the snapshot iterator's
// current block and are valid only for the call: the callbacks copy what
// they keep. Snapshot returns a callback's first error, or the snapshot
// scan's read error, if any. Must be called (to completion) before Recv.
func (t *Tail) Snapshot(block func(payload []byte) error, rec func(*store.Record) error) error {
	if t.it == nil {
		return nil
	}
	for t.it.NextBlock() {
		var err error
		if payload, maxSeq := t.it.Block(); payload != nil {
			t.boundary = maxSeq + 1
			err = block(payload)
		} else {
			r := t.it.Ref()
			t.boundary = r.Seq + 1
			err = rec(r)
		}
		if err != nil {
			return err
		}
	}
	return t.it.Err()
}

// Recv returns the next live event. Trace events that were already replayed
// by Snapshot are skipped (counted in Duplicates); ok is false once the
// subscriber is closed and drained.
func (t *Tail) Recv() (Event, bool) {
	for {
		ev, ok := t.sub.Recv()
		if !ok {
			return Event{}, false
		}
		if ev.Kind == KindTrace && ev.Record.Seq < t.boundary {
			t.dups++
			continue
		}
		return ev, true
	}
}

// drain is Subscriber.drain with Recv's duplicate filter: live trace
// events the snapshot already replayed are dropped from the batch.
func (t *Tail) drain(dst []Event, wait bool) ([]Event, uint64, bool) {
	batch, dropped, ok := t.sub.drain(dst, wait)
	k := len(dst)
	for i := len(dst); i < len(batch); i++ {
		if batch[i].Kind == KindTrace && batch[i].Record.Seq < t.boundary {
			t.dups++
			continue
		}
		batch[k] = batch[i]
		k++
	}
	return batch[:k], dropped, ok
}

// Duplicates reports how many live events Recv discarded as already
// delivered by the snapshot — the size of the registration-to-plan overlap.
func (t *Tail) Duplicates() uint64 { return t.dups }

// Subscriber exposes the underlying live subscription (for Stats).
func (t *Tail) Subscriber() *Subscriber { return t.sub }

// Close detaches the live subscription and releases the snapshot iterator's
// segment references, so a tail abandoned mid-snapshot does not pin files
// the store's lifecycle engine has retired.
func (t *Tail) Close() {
	t.sub.Close()
	if t.it != nil {
		t.it.Close()
	}
}
