package walstore

import "itcfs/internal/store"

// frameRecord builds a complete record around an already-encoded body, the
// way the store's mutators do around the body they encode in place: the
// goldens pin the production prefix code through it.
func frameRecord(seq uint64, kind uint8, body []byte) []byte {
	e := newRecord(len(body))
	e.Raw(body)
	finishRecord(e.Buf(), seq, kind)
	return e.Buf()
}

// encodeCheckpoint is buildCheckpoint for snapshots known to be within the
// limits, so the goldens pin the production encoder through it.
func encodeCheckpoint(seq uint64, cp store.Checkpoint) []byte {
	buf, err := buildCheckpoint(seq, cp)
	if err != nil {
		panic(err)
	}
	return buf
}
