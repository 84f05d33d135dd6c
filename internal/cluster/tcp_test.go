package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubHandler answers every request through handle.
type stubHandler struct {
	handle func(req []byte) ([]byte, error)
	done   chan struct{}
}

func (s *stubHandler) Handle(req []byte) ([]byte, error) { return s.handle(req) }
func (s *stubHandler) Done() <-chan struct{}             { return s.done }

// serveStub serves handle with Serve on a loopback listener until the test
// ends, and returns the listener's address.
func serveStub(t *testing.T, handle func(req []byte) ([]byte, error)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &stubHandler{handle: handle, done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- Serve(ln, h) }()
	t.Cleanup(func() {
		close(h.done)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A connection keeps nothing of a call once it has returned: after a 32 MiB
// request the live heap is back where it was, with the transport still
// open. Gob kept an encoder buffer as large as the largest request on the
// client and the last message in the server's decoder — 64 MiB here.
func TestTCPTransportRetainsNoRequestBuffer(t *testing.T) {
	req := make([]byte, 32<<20)
	for i := range req {
		req[i] = byte(i*131 + i>>13)
	}
	var exact atomic.Bool
	addr := serveStub(t, func(got []byte) ([]byte, error) {
		exact.Store(bytes.Equal(got, req))
		return []byte("ok"), nil
	})
	tr, err := Dial([]string{addr}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// A small call first, so the baseline already holds the connection's
	// lazily built state on both sides.
	if _, err := tr.Call(0, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	before := heapAfterGC()
	out, err := tr.Call(0, req)
	if err != nil {
		t.Fatal(err)
	}
	after := heapAfterGC()
	runtime.KeepAlive(req)

	if string(out) != "ok" {
		t.Fatalf("reply %q", out)
	}
	if !exact.Load() {
		t.Fatal("handler did not receive the request's exact bytes")
	}
	if grew := int64(after) - int64(before); grew >= 4<<20 {
		t.Fatalf("live heap grew by %.1f MiB across one 32 MiB call; the transport retains a message buffer",
			float64(grew)/(1<<20))
	}
}

// Concurrent calls on one connection are multiplexed by seq: net/rpc
// serialises the codec's writes and reads, and every caller gets its own
// reply back, error replies included.
func TestTCPConcurrentCallsShareOneConnection(t *testing.T) {
	addr := serveStub(t, func(req []byte) ([]byte, error) {
		if len(req) > 0 && req[0] == 'e' {
			return nil, errors.New(string(req))
		}
		return req, nil
	})
	tr, err := Dial([]string{addr}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const callers, calls = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				req := []byte(fmt.Sprintf("r%d-%d-%s", g, i, strings.Repeat("x", i*997)))
				if i%5 == 0 {
					req = []byte(fmt.Sprintf("e%d-%d", g, i))
				}
				out, err := tr.Call(0, req)
				switch {
				case req[0] == 'e' && (err == nil || err.Error() != string(req)):
					t.Errorf("caller %d call %d: error %v, want %q", g, i, err, req)
				case req[0] != 'e' && (err != nil || !bytes.Equal(out, req)):
					t.Errorf("caller %d call %d: reply of %d B, err %v", g, i, len(out), err)
				}
			}
		}()
	}
	wg.Wait()
}

// A peer that speaks gob-framed net/rpc — every binary before the frame
// codec — fails on its first call in either direction instead of hanging
// on a misread length.
func TestTCPMismatchedPeerFailsFast(t *testing.T) {
	echo := func(req []byte) ([]byte, error) { return req, nil }
	firstCall := func(t *testing.T, call func() error) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- call() }()
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("first call against a mismatched peer succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("first call against a mismatched peer hung")
		}
	}

	t.Run("gob client, frame server", func(t *testing.T) {
		c, err := rpc.Dial("tcp", serveStub(t, echo))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		firstCall(t, func() error {
			var resp []byte
			return c.Call(rpcName+".Call", []byte("hello"), &resp)
		})
	})

	t.Run("frame client, gob server", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		if err := srv.RegisterName(rpcName, &rpcService{h: &stubHandler{handle: echo}}); err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			srv.ServeConn(conn)
		}()
		defer func() {
			ln.Close()
			<-served
		}()
		tr, err := Dial([]string{ln.Addr().String()}, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		firstCall(t, func() error {
			_, err := tr.Call(0, []byte("hello"))
			return err
		})
	})
}

// ServeConn refuses a connection that does not open with the frame preface
// and says why.
func TestServeConnRefusesForeignPreface(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	go client.Write([]byte("GET / HTTP/1.1\r\n"))
	err := ServeConn(server, &stubHandler{handle: func([]byte) ([]byte, error) { return nil, nil }})
	if err == nil || !strings.Contains(err.Error(), "preface") {
		t.Fatalf("ServeConn = %v, want a preface error", err)
	}
}

// memConn is an in-memory connection: reads drain Reader, writes land in
// Writer, and Close is recorded.
type memConn struct {
	io.Reader
	io.Writer
	closed bool
}

func (c *memConn) Close() error {
	c.closed = true
	return nil
}

// A request and both kinds of reply cross the codec with seq, method,
// error and body intact, a body beyond the first read chunk included.
func TestFrameCodecRoundTrip(t *testing.T) {
	var up, down bytes.Buffer
	client := newFrameCodec(&memConn{Reader: &down, Writer: &up})
	server := newFrameCodec(&memConn{Reader: &up, Writer: &down})

	for _, body := range [][]byte{nil, []byte("directive"), bytes.Repeat([]byte{1, 2, 3}, frameChunk/3+4097)} {
		sent := rpc.Request{ServiceMethod: rpcName + ".Call", Seq: 1<<40 + 3}
		if err := client.WriteRequest(&sent, body); err != nil {
			t.Fatal(err)
		}
		var req rpc.Request
		var got []byte
		if err := server.ReadRequestHeader(&req); err != nil {
			t.Fatal(err)
		}
		if err := server.ReadRequestBody(&got); err != nil {
			t.Fatal(err)
		}
		if req != sent || !bytes.Equal(got, body) || len(got) != cap(got) {
			t.Fatalf("request %+v with %d B body (cap %d), sent %+v with %d B", req, len(got), cap(got), sent, len(body))
		}

		reply := append([]byte("report:"), body...)
		if err := server.WriteResponse(&rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}, &reply); err != nil {
			t.Fatal(err)
		}
		// An error longer than the field cap arrives truncated, not as a
		// broken connection.
		failed := rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq + 1, Error: "worker: " + strings.Repeat("!", maxFrameField)}
		if err := server.WriteResponse(&failed, struct{}{}); err != nil {
			t.Fatal(err)
		}
		var resp rpc.Response
		var gotReply []byte
		if err := client.ReadResponseHeader(&resp); err != nil {
			t.Fatal(err)
		}
		if err := client.ReadResponseBody(&gotReply); err != nil {
			t.Fatal(err)
		}
		if resp != (rpc.Response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}) || !bytes.Equal(gotReply, reply) {
			t.Fatalf("reply %+v with %d B body, want seq %d and %d B", resp, len(gotReply), req.Seq, len(reply))
		}
		if err := client.ReadResponseHeader(&resp); err != nil {
			t.Fatal(err)
		}
		if err := client.ReadResponseBody(nil); err != nil {
			t.Fatal(err)
		}
		if failed.Error = failed.Error[:maxFrameField]; resp != failed {
			t.Fatalf("error reply %+v, want %+v", resp, failed)
		}
	}
	if up.Len() != 0 || down.Len() != 0 {
		t.Fatalf("%d B upstream, %d B downstream left unread", up.Len(), down.Len())
	}
}

// A header may claim up to 1 GiB, but the reader allocates only as the
// bytes arrive: a claim followed by EOF costs one first chunk.
func TestFrameCodecLyingLengthAllocatesOneChunk(t *testing.T) {
	conn := &memConn{Reader: bytes.NewReader(appendFrameHeader(nil, 1, rpcName+".Call", "", maxFrameBody))}
	c := newFrameCodec(conn)
	var req rpc.Request
	if err := c.ReadRequestHeader(&req); err != nil {
		t.Fatal(err)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	var body []byte
	err := c.ReadRequestBody(&body)
	runtime.ReadMemStats(&m)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !conn.closed {
		t.Fatalf("truncated body: err %v, connection closed %v", err, conn.closed)
	}
	if got := m.TotalAlloc - before; got > frameChunk+64<<10 {
		t.Fatalf("allocated %.1f MiB for a body that never arrived (one chunk is %d MiB)",
			float64(got)/(1<<20), frameChunk>>20)
	}
}

// Lengths beyond the caps, a non-minimal uvarint and an error string on a
// request are refused, and each closes the connection.
func TestFrameCodecRefusesMalformedHeaders(t *testing.T) {
	call := rpcName + ".Call"
	for name, frame := range map[string][]byte{
		"body over 1 GiB":    appendFrameHeader(nil, 1, call, "", maxFrameBody+1),
		"method over cap":    appendFrameHeader(nil, 1, strings.Repeat("m", maxFrameField+1), "", 0),
		"error over cap":     appendFrameHeader(nil, 1, call, strings.Repeat("e", maxFrameField+1), 0),
		"error on a request": appendFrameHeader(nil, 1, call, "boom", 0),
		"padded uvarint":     append([]byte{0x81, 0x00}, appendFrameHeader(nil, 1, call, "", 0)[1:]...),
		"uvarint overflow":   bytes.Repeat([]byte{0xff}, 11),
		"truncated header":   appendFrameHeader(nil, 1, call, "", 0)[:5],
	} {
		conn := &memConn{Reader: bytes.NewReader(frame)}
		var req rpc.Request
		if err := newFrameCodec(conn).ReadRequestHeader(&req); err == nil || !conn.closed {
			t.Errorf("%s: err %v, connection closed %v", name, err, conn.closed)
		}
	}
}

// The frame reader is the process boundary of every TCP worker and
// aggregator: whatever bytes arrive, it never panics, and every frame it
// accepts re-encodes byte for byte through the writer.
func FuzzFrameCodec(f *testing.F) {
	var stream bytes.Buffer
	w := newFrameCodec(&memConn{Writer: &stream})
	for seq, body := range [][]byte{[]byte("directive"), nil, bytes.Repeat([]byte{0xAB}, 300)} {
		if err := w.WriteRequest(&rpc.Request{ServiceMethod: rpcName + ".Call", Seq: uint64(seq) << 7}, body); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Add(appendFrameHeader(nil, 1, rpcName+".Call", "", maxFrameBody))
	f.Add(appendFrameHeader(nil, 1, rpcName+".Call", "boom", 0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := bytes.NewReader(raw)
		c := newFrameCodec(&memConn{Reader: in})
		var out bytes.Buffer
		re := newFrameCodec(&memConn{Writer: &out})
		accepted := 0
		for {
			var req rpc.Request
			var body []byte
			if c.ReadRequestHeader(&req) != nil || c.ReadRequestBody(&body) != nil {
				break
			}
			if err := re.WriteRequest(&req, body); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			accepted = len(raw) - in.Len() - c.r.Buffered()
		}
		if !bytes.Equal(out.Bytes(), raw[:accepted]) {
			t.Fatalf("accepted frames re-encode differently:\n% x\n% x", out.Bytes(), raw[:accepted])
		}
	})
}
