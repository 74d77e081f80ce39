// Package baseline implements the design alternative the paper argues
// against: a remote-open, page-at-a-time file service in the style of Locus
// or a diskless workstation's disk server (§2.3, §6.3). Every read and
// write of an open remote file is an RPC to the server that stores it;
// nothing is cached on the workstation.
//
// The evaluation uses it as the comparator for whole-file transfer
// (experiment E8): page access pays per-operation protocol overhead on
// every read and keeps the server in the loop between open and close, while
// whole-file caching contacts custodians only at opens and closes. The
// honest flip side also falls out: for a small read out of a very large
// file, paging wins — which is exactly why the paper limits its design to
// files "up to a few megabytes" (§2.2).
package baseline

import (
	"fmt"
	"sync"

	"itcfs/internal/proto"
	"itcfs/internal/rpc"
	"itcfs/internal/sim"
	"itcfs/internal/unixfs"
	"itcfs/internal/wire"
)

// pageSize is the transfer unit, a 4 KB page.
const pageSize = 4096

// Ops of the page protocol (distinct from the Vice range).
const (
	opOpen  = 100
	opRead  = 101
	opWrite = 102
	opClose = 103
	opStat  = 104
)

// Backend is the name space a page server serves pages of: the page
// protocol's handlers know only how to open a file in it and describe one.
// An in-memory Unix file system (NewServer) and a whole workstation view
// (virtue.Surrogate) are the two.
type Backend interface {
	// Open opens path, creating it first when create is set and it is absent.
	Open(p *sim.Proc, path string, create bool) (OpenFile, error)
	// Stat reports the size and version of path.
	Stat(p *sim.Proc, path string) (size int64, version uint64, err error)
}

// OpenFile is a file a Backend has opened, held under a descriptor until the
// client closes it.
type OpenFile interface {
	ReadAt(buf []byte, off int64) (int, error)
	WriteAt(buf []byte, off int64) (int, error)
	Close(p *sim.Proc) error
}

// Server serves the page protocol over a Backend.
type Server struct {
	back Backend
	disp *rpc.Server

	mu     sync.Mutex
	nextFD uint64              // guarded by mu
	open   map[uint64]OpenFile // guarded by mu

	reads, writes, opens int64 // guarded by mu
}

// NewServer builds a page server around an in-memory Unix file system.
func NewServer(fs *unixfs.FS) *Server { return NewServerOver(unixFiles{fs}) }

// NewServerOver builds a page server over back. Attach its Dispatcher to an
// rpc endpoint (simulated or TCP) the page clients can reach.
func NewServerOver(back Backend) *Server {
	s := &Server{back: back, disp: rpc.NewServer(), open: make(map[uint64]OpenFile)}
	s.disp.Handle(opOpen, s.handleOpen)
	s.disp.Handle(opRead, s.handleRead)
	s.disp.Handle(opWrite, s.handleWrite)
	s.disp.Handle(opClose, s.handleClose)
	s.disp.Handle(opStat, s.handleStat)
	return s
}

// FS returns the Unix file system behind a server NewServer built (for
// populating test data); nil over any other Backend.
func (s *Server) FS() *unixfs.FS {
	u, _ := s.back.(unixFiles)
	return u.fs
}

// Dispatcher returns the handler set to bind to a transport.
func (s *Server) Dispatcher() *rpc.Server { return s.disp }

// OpCounts reports opens, page reads and page writes served.
func (s *Server) OpCounts() (opens, reads, writes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opens, s.reads, s.writes
}

func errResponse(err error) rpc.Response {
	return rpc.Response{Code: proto.ErrToCode(err), Body: []byte(err.Error())}
}

func (s *Server) handleOpen(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	d := wire.NewDecoder(req.Body)
	path := d.String()
	create := d.Bool()
	if d.Close() != nil {
		return rpc.Response{Code: proto.CodeBadRequest}
	}
	f, err := s.back.Open(ctx.Proc, path, create)
	if err != nil {
		return errResponse(err)
	}
	size, _, err := s.back.Stat(ctx.Proc, path)
	if err != nil {
		f.Close(ctx.Proc)
		return errResponse(err)
	}
	s.mu.Lock()
	s.nextFD++
	fd := s.nextFD
	s.open[fd] = f
	s.opens++
	s.mu.Unlock()
	var e wire.Encoder
	e.U64(fd)
	e.I64(size)
	return rpc.Response{Body: append([]byte(nil), e.Buf()...)}
}

func (s *Server) file(fd uint64) (OpenFile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.open[fd]
	return f, ok
}

func (s *Server) handleRead(_ rpc.Ctx, req rpc.Request) rpc.Response {
	d := wire.NewDecoder(req.Body)
	fd := d.U64()
	off := d.I64()
	n := d.Int()
	if d.Close() != nil || n <= 0 || n > pageSize {
		return rpc.Response{Code: proto.CodeBadRequest}
	}
	f, ok := s.file(fd)
	if !ok {
		return rpc.Response{Code: proto.CodeStale}
	}
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, off)
	if err != nil {
		return errResponse(err)
	}
	s.mu.Lock()
	s.reads++
	s.mu.Unlock()
	return rpc.Response{Bulk: buf[:got]}
}

func (s *Server) handleWrite(_ rpc.Ctx, req rpc.Request) rpc.Response {
	d := wire.NewDecoder(req.Body)
	fd := d.U64()
	off := d.I64()
	// No file is larger than wire.MaxField, the one field a store carries it
	// in, so a page ending past that is refused before the file grows to it.
	if d.Close() != nil || len(req.Bulk) > pageSize || off < 0 || off > wire.MaxField-int64(len(req.Bulk)) {
		return rpc.Response{Code: proto.CodeBadRequest}
	}
	f, ok := s.file(fd)
	if !ok {
		return rpc.Response{Code: proto.CodeStale}
	}
	if _, err := f.WriteAt(req.Bulk, off); err != nil {
		return errResponse(err)
	}
	s.mu.Lock()
	s.writes++
	s.mu.Unlock()
	return rpc.Response{}
}

// handleClose releases the descriptor and closes the file — over a
// workstation view, the moment Venus stores a modified shared file back.
func (s *Server) handleClose(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	d := wire.NewDecoder(req.Body)
	fd := d.U64()
	if d.Close() != nil {
		return rpc.Response{Code: proto.CodeBadRequest}
	}
	s.mu.Lock()
	f, ok := s.open[fd]
	delete(s.open, fd)
	s.mu.Unlock()
	if !ok {
		return rpc.Response{Code: proto.CodeStale}
	}
	if err := f.Close(ctx.Proc); err != nil {
		return errResponse(err)
	}
	return rpc.Response{}
}

func (s *Server) handleStat(ctx rpc.Ctx, req rpc.Request) rpc.Response {
	d := wire.NewDecoder(req.Body)
	path := d.String()
	if d.Close() != nil {
		return rpc.Response{Code: proto.CodeBadRequest}
	}
	size, version, err := s.back.Stat(ctx.Proc, path)
	if err != nil {
		return errResponse(err)
	}
	var e wire.Encoder
	e.I64(size)
	e.U64(version)
	return rpc.Response{Body: append([]byte(nil), e.Buf()...)}
}

// unixFiles is the Backend over a Unix file system, whose open files are
// their paths.
type unixFiles struct{ fs *unixfs.FS }

type unixFile struct {
	fs   *unixfs.FS
	path string
}

func (u unixFiles) Open(_ *sim.Proc, path string, create bool) (OpenFile, error) {
	if !u.fs.Exists(path) {
		if !create {
			return nil, fmt.Errorf("%w: %s", proto.ErrNoEnt, path)
		}
		if err := u.fs.WriteFile(path, nil, 0o644, ""); err != nil {
			return nil, err
		}
	}
	return unixFile{u.fs, path}, nil
}

func (u unixFiles) Stat(_ *sim.Proc, path string) (int64, uint64, error) {
	st, err := u.fs.Stat(path)
	return st.Size, st.Version, err
}

func (f unixFile) ReadAt(buf []byte, off int64) (int, error) { return f.fs.ReadAt(f.path, buf, off) }
func (f unixFile) WriteAt(buf []byte, off int64) (int, error) {
	return f.fs.WriteAt(f.path, buf, off)
}
func (f unixFile) Close(*sim.Proc) error { return nil }

// Client accesses remote files page by page with no local cache.
type Client struct {
	conn rpc.Conn
}

// NewClient wraps a connection to a page server.
func NewClient(conn rpc.Conn) *Client {
	return &Client{conn: conn}
}

// File is an open remote file.
type File struct {
	c    *Client
	fd   uint64
	size int64
}

func respErr(resp rpc.Response, err error) error {
	if err != nil {
		return err
	}
	if !resp.OK() {
		return proto.CodeToErr(resp.Code, string(resp.Body))
	}
	return nil
}

// Open opens (optionally creating) a remote file.
func (c *Client) Open(p *sim.Proc, path string, create bool) (*File, error) {
	var e wire.Encoder
	e.String(path)
	e.Bool(create)
	resp, err := c.conn.Call(p, rpc.Request{Op: opOpen, Body: append([]byte(nil), e.Buf()...)})
	if err := respErr(resp, err); err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp.Body)
	f := &File{c: c, fd: d.U64(), size: d.I64()}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return f, nil
}

// Size returns the size reported at open.
func (f *File) Size() int64 { return f.size }

// ReadAt fetches up to len(buf) bytes at off, one page per RPC.
func (f *File) ReadAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	total := 0
	for total < len(buf) {
		want := len(buf) - total
		if want > pageSize {
			want = pageSize
		}
		var e wire.Encoder
		e.U64(f.fd)
		e.I64(off + int64(total))
		e.Int(want)
		resp, err := f.c.conn.Call(p, rpc.Request{Op: opRead, Body: append([]byte(nil), e.Buf()...)})
		if err := respErr(resp, err); err != nil {
			return total, err
		}
		n := copy(buf[total:], resp.Bulk)
		total += n
		if len(resp.Bulk) < want {
			return total, nil // EOF
		}
	}
	return total, nil
}

// WriteAt writes buf at off, one page per RPC.
func (f *File) WriteAt(p *sim.Proc, buf []byte, off int64) (int, error) {
	total := 0
	for total < len(buf) {
		n := len(buf) - total
		if n > pageSize {
			n = pageSize
		}
		var e wire.Encoder
		e.U64(f.fd)
		e.I64(off + int64(total))
		resp, err := f.c.conn.Call(p, rpc.Request{
			Op:   opWrite,
			Body: append([]byte(nil), e.Buf()...),
			Bulk: buf[total : total+n],
		})
		if err := respErr(resp, err); err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Close releases the remote descriptor.
func (f *File) Close(p *sim.Proc) error {
	var e wire.Encoder
	e.U64(f.fd)
	resp, err := f.c.conn.Call(p, rpc.Request{Op: opClose, Body: append([]byte(nil), e.Buf()...)})
	return respErr(resp, err)
}

// ReadFile reads a whole remote file page by page.
func (c *Client) ReadFile(p *sim.Proc, path string) ([]byte, error) {
	f, err := c.Open(p, path, false)
	if err != nil {
		return nil, err
	}
	defer f.Close(p)
	out := make([]byte, f.size)
	n, err := f.ReadAt(p, out, 0)
	return out[:n], err
}

// WriteFile writes a whole remote file page by page.
func (c *Client) WriteFile(p *sim.Proc, path string, data []byte) error {
	f, err := c.Open(p, path, true)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(p, data, 0); err != nil {
		f.Close(p)
		return err
	}
	return f.Close(p)
}

// PageIO reports whether op moves a page, and so reaches the server's disk:
// a read or a write. Open, stat and close do not.
func PageIO(op rpc.Op) bool { return op == opRead || op == opWrite }
