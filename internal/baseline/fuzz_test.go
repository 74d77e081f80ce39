package baseline

import (
	"testing"

	"itcfs/internal/rpc"
	"itcfs/internal/wire"
)

// FuzzPageServer dispatches an arbitrary body and bulk as every op of the
// page protocol to a fresh server with one file open. Each must be answered —
// error codes are fine, panics are not — the open file may not grow past what
// a store can carry, and the server must serve an open and a read afterwards.
func FuzzPageServer(f *testing.F) {
	var e wire.Encoder
	e.U64(1)
	e.I64(4096)
	f.Add(append([]byte(nil), e.Buf()...), []byte("page"))
	e.Int(16)
	f.Add(append([]byte(nil), e.Buf()...), []byte(nil))
	e.Reset()
	e.String("/f")
	e.Bool(true)
	f.Add(append([]byte(nil), e.Buf()...), []byte(nil))
	f.Add([]byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, body, bulk []byte) {
		srv, c := newPair(t)
		if err := c.WriteFile(nil, "/f", []byte("seed data")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Open(nil, "/f", false); err != nil {
			t.Fatal(err)
		}
		for _, op := range []rpc.Op{opOpen, opRead, opWrite, opClose, opStat} {
			srv.Dispatcher().Dispatch(rpc.Ctx{User: "u"}, rpc.Request{Op: op, Body: body, Bulk: bulk})
		}
		if st, err := srv.FS().Stat("/f"); err != nil || st.Size > wire.MaxField {
			t.Fatalf("after the fuzzed ops: %+v, %v", st, err)
		}
		g, err := c.Open(nil, "/f", false)
		if err == nil {
			_, err = g.ReadAt(nil, make([]byte, pageSize), 0)
		}
		if err != nil {
			t.Fatalf("server stopped serving: %v", err)
		}
	})
}
