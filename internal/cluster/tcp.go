package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// rpcName is the net/rpc service name workers register under.
const rpcName = "Worker"

// rpcService is the net/rpc receiver wrapping a Handler (a Worker or an
// aggregator node). Requests and replies are opaque wire-encoded byte
// slices: net/rpc multiplexes calls and carries handler errors, the frame
// codec below carries the bytes, and every schema and version check lives
// in internal/wire.
type rpcService struct {
	h Handler
}

// Call handles one coordinator request.
//
//trimlint:allow deadexport net/rpc reaches it by reflection
func (s *rpcService) Call(req []byte, resp *[]byte) error {
	out, err := s.h.Handle(req)
	if err != nil {
		return err
	}
	*resp = out
	return nil
}

// The TCP framing (DESIGN.md §6). A frame is
//
//	uvarint seq | uvarint len, method | uvarint len, error | uvarint len, body
//
// in both directions; requests carry an empty error. Every uvarint is
// minimally encoded, so an accepted frame has exactly one encoding.
const (
	// frameVersion versions the framing alone; payloads carry wire.Version.
	frameVersion = 1
	// maxFrameField caps a frame's method and error strings.
	maxFrameField = 1 << 10
	// maxFrameBody caps a frame's body.
	maxFrameBody = 1 << 30
	// frameChunk is the first allocation of a body read; the buffer then
	// at most doubles per refill, so whatever length a header claims, the
	// buffer never exceeds max(frameChunk, 2 × the bytes that arrived).
	frameChunk = 10 << 20
)

// framePreface opens every connection: a magic, then the frame version. Its
// first byte announces a 49-byte count to a gob decoder, which refuses it
// at once, and no gob stream starts with it, so a gob-era peer on either
// end fails on its first call instead of waiting on a misread length.
var framePreface = [4]byte{0xCF, 'T', 'F', frameVersion}

var errFrameUvarint = errors.New("cluster: malformed frame uvarint")

// frameCodec is the net/rpc codec of the TCP transport, client and server
// side alike. A body larger than the bufio.Writer's free space goes
// straight from the caller's slice to the socket (a smaller one is copied
// in and flushed with its header), and a body is read into one fresh slice
// handed to the caller, so between calls a connection keeps only its two
// fixed bufio buffers. net/rpc serialises the writes and reads the
// connection from a single goroutine, so the write side (w) and the read
// side (r, body) are never used concurrently with themselves. Any framing
// violation closes the connection, which the coordinator treats as a lost
// worker. The codec carries byte slices only: requests are []byte and
// replies *[]byte, as tcpTransport.Call and rpcService.Call pass them, and
// bodies are read into *[]byte.
type frameCodec struct {
	conn io.ReadWriteCloser
	r    *bufio.Reader
	w    *bufio.Writer
	body uint64 // body length announced by the last header read
}

func newFrameCodec(conn io.ReadWriteCloser) *frameCodec {
	return &frameCodec{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

// fail closes the connection after a framing violation and returns err.
func (c *frameCodec) fail(err error) error {
	c.conn.Close()
	return err
}

// writeFrame writes one frame and flushes it. The header is built in the
// bufio.Writer's own free space (empty after every flush), so it needs no
// scratch of its own. An oversized error string is truncated rather than
// refused, so a long handler error still reaches the caller. A frame that
// cannot be written whole closes the connection: the peer would otherwise
// wait for a reply that never comes, or misread what follows.
func (c *frameCodec) writeFrame(seq uint64, method, errMsg string, body []byte) error {
	if len(method) > maxFrameField || len(body) > maxFrameBody {
		return c.fail(fmt.Errorf("cluster: frame of method %d B, body %d B exceeds the caps (%d, %d)",
			len(method), len(body), maxFrameField, maxFrameBody))
	}
	if len(errMsg) > maxFrameField {
		errMsg = errMsg[:maxFrameField]
	}
	h := appendFrameHeader(c.w.AvailableBuffer(), seq, method, errMsg, uint64(len(body)))
	if _, err := c.w.Write(h); err != nil {
		return c.fail(err)
	}
	if _, err := c.w.Write(body); err != nil {
		return c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// appendFrameHeader appends a frame header announcing a body of bodyLen
// bytes.
func appendFrameHeader(dst []byte, seq uint64, method, errMsg string, bodyLen uint64) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(method)))
	dst = append(dst, method...)
	dst = binary.AppendUvarint(dst, uint64(len(errMsg)))
	dst = append(dst, errMsg...)
	return binary.AppendUvarint(dst, bodyLen)
}

// readUvarint reads one minimally encoded uvarint. It returns io.EOF only
// when the stream ends before the first byte.
func (c *frameCodec) readUvarint() (uint64, error) {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := c.r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if (i > 0 && b == 0) || (i == binary.MaxVarintLen64-1 && b > 1) {
				return 0, errFrameUvarint
			}
			return x | uint64(b)<<(7*i), nil
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return 0, errFrameUvarint
}

// readField reads one length-prefixed header string.
func (c *frameCodec) readField() (string, error) {
	n, err := c.readUvarint()
	if err != nil {
		return "", err
	}
	if n > maxFrameField {
		return "", fmt.Errorf("cluster: frame field of %d B exceeds %d", n, maxFrameField)
	}
	// maxFrameField fits the bufio.Reader, so Peek sees the whole field.
	b, err := c.r.Peek(int(n))
	if err != nil {
		return "", err
	}
	s := string(b)
	_, err = c.r.Discard(len(b))
	return s, err
}

// readHeader reads one frame header and leaves its body length in c.body.
// A stream that ends cleanly between frames returns io.EOF, as net/rpc
// expects; every other failure closes the connection.
func (c *frameCodec) readHeader() (seq uint64, method, errMsg string, err error) {
	if seq, err = c.readUvarint(); err != nil {
		if err == io.EOF {
			return 0, "", "", err
		}
		return 0, "", "", c.fail(err)
	}
	if method, err = c.readField(); err == nil {
		if errMsg, err = c.readField(); err == nil {
			c.body, err = c.readUvarint()
			if err == nil && c.body > maxFrameBody {
				err = fmt.Errorf("cluster: frame body of %d B exceeds %d", c.body, maxFrameBody)
			}
		}
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, "", "", c.fail(err)
	}
	return seq, method, errMsg, nil
}

// readBody reads the body the last header announced into one fresh slice
// stored through dst, or discards it when dst is nil — net/rpc does that
// for error replies and unknown methods.
func (c *frameCodec) readBody(dst any) error {
	n := c.body
	c.body = 0
	if dst == nil {
		if _, err := c.r.Discard(int(n)); err != nil {
			return c.fail(err)
		}
		return nil
	}
	buf := make([]byte, min(n, frameChunk))
	for filled := 0; ; {
		if _, err := io.ReadFull(c.r, buf[filled:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return c.fail(err)
		}
		filled = len(buf)
		if uint64(filled) == n {
			break
		}
		grown := make([]byte, min(n, 2*uint64(filled)))
		copy(grown, buf)
		buf = grown
	}
	*dst.(*[]byte) = buf
	return nil
}

// WriteRequest implements rpc.ClientCodec.
func (c *frameCodec) WriteRequest(r *rpc.Request, body any) error {
	return c.writeFrame(r.Seq, r.ServiceMethod, "", body.([]byte))
}

// ReadResponseHeader implements rpc.ClientCodec.
func (c *frameCodec) ReadResponseHeader(r *rpc.Response) (err error) {
	r.Seq, r.ServiceMethod, r.Error, err = c.readHeader()
	return err
}

// ReadResponseBody implements rpc.ClientCodec.
func (c *frameCodec) ReadResponseBody(body any) error { return c.readBody(body) }

// ReadRequestHeader implements rpc.ServerCodec. A request carrying an error
// string is a framing violation.
func (c *frameCodec) ReadRequestHeader(r *rpc.Request) error {
	seq, method, errMsg, err := c.readHeader()
	if err != nil {
		return err
	}
	if errMsg != "" {
		return c.fail(errors.New("cluster: request frame carries an error string"))
	}
	r.Seq, r.ServiceMethod = seq, method
	return nil
}

// ReadRequestBody implements rpc.ServerCodec.
func (c *frameCodec) ReadRequestBody(body any) error { return c.readBody(body) }

// WriteResponse implements rpc.ServerCodec. An error reply (net/rpc passes
// a placeholder body with it) ships an empty body.
func (c *frameCodec) WriteResponse(r *rpc.Response, body any) error {
	var b []byte
	if r.Error == "" {
		b = *body.(*[]byte)
	}
	return c.writeFrame(r.Seq, r.ServiceMethod, r.Error, b)
}

// Close implements rpc.ClientCodec and rpc.ServerCodec.
func (c *frameCodec) Close() error { return c.conn.Close() }

// ServeConn serves handler h on one upstream connection until the peer
// closes it or breaks the framing, then closes it. The connection must open
// with the frame preface Dial writes: any other peer — a binary from before
// this framing, say — is refused at once, and the returned error says so.
func ServeConn(conn io.ReadWriteCloser, h Handler) error {
	c := newFrameCodec(conn)
	var got [len(framePreface)]byte
	if _, err := io.ReadFull(c.r, got[:]); err != nil {
		conn.Close()
		return fmt.Errorf("cluster: read frame preface: %w", err)
	}
	if got != framePreface {
		conn.Close()
		return fmt.Errorf("cluster: connection preface % x is not frame v%d (% x): peer speaks another protocol, e.g. a stale binary",
			got, frameVersion, framePreface)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(rpcName, &rpcService{h: h}); err != nil {
		conn.Close()
		return err
	}
	srv.ServeCodec(c)
	return nil
}

// Serve runs a protocol handler on an open listener until it is stopped
// (OpStop) or the listener fails. Each upstream connection is served on
// its own goroutine; in practice one coordinator holds one connection.
func Serve(ln net.Listener, h Handler) error {
	go func() {
		<-h.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-h.Done():
				// Give the in-flight stop acknowledgement a moment to be
				// written before the process exits.
				time.Sleep(50 * time.Millisecond)
				return nil
			default:
				return err
			}
		}
		// A refused preface ends only that connection, which its peer
		// sees closed on its first call; ServeConn's error is dropped.
		go ServeConn(conn, h)
	}
}

// ListenAndServe runs a protocol handler on a TCP address — the body of the
// `trimlab worker` and `trimlab aggregator` subcommands.
func ListenAndServe(addr string, h Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return Serve(ln, h)
}

// dialFrames connects to a worker at addr, writes the frame preface and
// hands the connection to a net/rpc client over the frame codec.
func dialFrames(addr string) (*rpc.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(framePreface[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("write frame preface: %w", err)
	}
	return rpc.NewClientWithCodec(newFrameCodec(conn)), nil
}

// tcpTransport is the coordinator side: one net/rpc client per worker. The
// address list is retained so a lost worker can be revived by re-dialing —
// a re-spawned `trimlab worker -rejoin` process listens on the old address.
type tcpTransport struct {
	addrs []string

	mu      sync.Mutex
	clients []*rpc.Client
}

// Dial connects to worker processes at the given addresses, retrying each
// for up to wait (workers and coordinator typically start concurrently).
// Worker index i is addrs[i] — address order is shard order, so the same
// address list reproduces the same run.
func Dial(addrs []string, wait time.Duration) (Transport, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	t := &tcpTransport{
		addrs:   append([]string(nil), addrs...),
		clients: make([]*rpc.Client, len(addrs)),
	}
	deadline := time.Now().Add(wait) //trimlint:allow detrand dial-retry deadline during transport setup, before any game round
	for i, addr := range addrs {
		for {
			c, err := dialFrames(addr)
			if err == nil {
				t.clients[i] = c
				break
			}
			if time.Now().After(deadline) { //trimlint:allow detrand dial-retry deadline during transport setup, before any game round
				t.Close()
				return nil, fmt.Errorf("cluster: dial worker %d at %s: %w", i, addr, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return t, nil
}

// Workers returns the worker count.
func (t *tcpTransport) Workers() int { return len(t.clients) }

// client returns the current connection of worker w.
func (t *tcpTransport) client(w int) (*rpc.Client, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w < 0 || w >= len(t.clients) || t.clients[w] == nil {
		return nil, fmt.Errorf("cluster: no worker %d", w)
	}
	return t.clients[w], nil
}

// Call performs one synchronous RPC round trip to worker w.
func (t *tcpTransport) Call(w int, req []byte) ([]byte, error) {
	c, err := t.client(w)
	if err != nil {
		return nil, err
	}
	var resp []byte
	if err := c.Call(rpcName+".Call", req, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Revive re-establishes the connection to worker w by dialing its original
// address again (Reviver) — the TCP liveness hook behind worker re-join.
// It fails fast while nothing listens there; on success the stale client is
// replaced, so in-flight calls on the old connection still fail cleanly.
func (t *tcpTransport) Revive(w int) error {
	if w < 0 || w >= len(t.addrs) {
		return fmt.Errorf("cluster: no worker %d", w)
	}
	c, err := dialFrames(t.addrs[w])
	if err != nil {
		return fmt.Errorf("cluster: revive worker %d at %s: %w", w, t.addrs[w], err)
	}
	t.mu.Lock()
	old := t.clients[w]
	t.clients[w] = c
	t.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// Close closes every client connection.
func (t *tcpTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for i, c := range t.clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		t.clients[i] = nil
	}
	return first
}
