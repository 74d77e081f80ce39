package walstore

// frameRecord builds a complete record around an already-encoded body, the
// way the store's mutators do around the body they encode in place: the
// goldens pin the production prefix code through it.
func frameRecord(seq uint64, kind uint8, body []byte) []byte {
	e := newRecord(len(body))
	e.Raw(body)
	finishRecord(e.Buf(), seq, kind)
	return e.Buf()
}
