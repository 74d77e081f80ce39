package rpc

import (
	"time"

	"itcfs/internal/wire"
)

// encodeCall and encodeReply build a whole packet plaintext in a fresh slice
// — what a transport seals — from the production head encoders. No
// transport needs the plaintext whole any more; the codec tests and fuzzers
// do.

func encodeCall(seq uint32, tc wire.TraceHeader, req Request) []byte {
	var e wire.Encoder
	encodeCallHead(&e, seq, tc, req)
	e.Raw(req.Bulk)
	return e.Buf()
}

func encodeReply(seq uint32, svc time.Duration, resp Response) []byte {
	var e wire.Encoder
	encodeReplyHead(&e, seq, svc, resp)
	e.Raw(resp.Bulk)
	return e.Buf()
}
