package stream

import (
	"rad/internal/store"
	"rad/internal/tracedb"
)

// Tail is a snapshot-then-follow subscription: it replays every matching
// record already committed to a tracedb store (in sequence order), then
// switches to the live feed with no gaps and no duplicates.
//
// The handoff is exact by construction. The subscriber registers with the
// broker inside the critical section in which the store takes the snapshot
// (tracedb.DB.ScanAttached), and the store's commit hook publishes inside
// the commit's own critical section, which excludes it. So each record is
// committed either before registration, and is in the snapshot, or after
// it, and reaches the subscriber's ring: never both, never neither. Use
// the Block policy for a lossless tail (the gap-free guarantee); under
// DropOldest a tail that falls behind loses live events like any other
// subscriber, with the loss counted.
type Tail struct {
	sub *Subscriber
	it  *tracedb.Iterator
}

// Tail opens a snapshot-then-follow subscription over db. Call Snapshot to
// drain the historical records, then receive the live events from
// Subscriber; Close when done. A nil db opens a plain live tail: Snapshot
// replays nothing.
func (b *Broker) Tail(db *tracedb.DB, opts SubOptions) *Tail {
	t := &Tail{}
	if db == nil {
		t.sub = b.Subscribe(opts)
	} else {
		t.it = db.ScanAttached(opts.Filter, func() { t.sub = b.Subscribe(opts) })
	}
	return t
}

// Snapshot streams every historical record, already filtered, in sequence
// order. A block whose every record the planner's index metadata proves to
// match goes to block whole, as its stored payload — a store block,
// undecoded (store.BlockReader reads it). Every other record goes to rec:
// those of blocks the subscription matches only in part, or not provably
// in full (the one holding a resume point), and the staged tail. Both
// arguments point into the snapshot iterator's current block and are valid
// only for the call: the callbacks copy what they keep. Snapshot returns a
// callback's first error, or the snapshot scan's read error, if any. Call
// it, to completion, before receiving live events, which the subscriber's
// ring holds meanwhile.
func (t *Tail) Snapshot(block func(payload []byte) error, rec func(*store.Record) error) error {
	if t.it == nil {
		return nil
	}
	for t.it.NextBlock() {
		var err error
		if payload := t.it.Block(); payload != nil {
			err = block(payload)
		} else {
			err = rec(t.it.Ref())
		}
		if err != nil {
			return err
		}
	}
	return t.it.Err()
}

// Subscriber returns the live subscription, which delivers every matching
// record committed after the snapshot.
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
