package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
)

// request is one prebuilt HTTP request. The load generator writes wire
// as is and reads the reply into reused buffers, so its own heap work
// stays out of the server's allocation figures.
type request struct {
	method, path string
	body         []byte
	wire         []byte
}

func newRequest(method, path string, body []byte) *request {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(body))
	b.Write(body)
	return &request{method: method, path: path, body: body, wire: b.Bytes()}
}

// transport sends one request and returns the status and the body. The
// body is valid until the next call.
type transport interface {
	do(r *request) (int, []byte, error)
}

// conn is one keep-alive HTTP/1.1 connection speaking just enough of the
// protocol for the service's replies: a status line, headers, and a body
// framed by Content-Length or chunked transfer coding.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), body: make([]byte, 0, 64<<10)}, nil
}

func (k *conn) close() { k.c.Close() }

var errProto = errors.New("malformed HTTP reply")

func (k *conn) do(r *request) (int, []byte, error) {
	if _, err := k.c.Write(r.wire); err != nil {
		return 0, nil, err
	}
	line, err := k.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errProto
	}
	status := atoi(line[9:12])
	length, chunked := -1, false
	for {
		line, err = k.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasFold(line, "Content-Length:"):
			length = atoi(trim(line[len("Content-Length:"):]))
		case hasFold(line, "Transfer-Encoding:"):
			chunked = bytes.Contains(line, []byte("chunked"))
		}
	}
	k.body = k.body[:0]
	if !chunked {
		if length < 0 {
			return 0, nil, errProto
		}
		body, err := k.readN(length)
		return status, body, err
	}
	for {
		line, err = k.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		n, err := strconv.ParseUint(string(trim(line)), 16, 32)
		if err != nil {
			return 0, nil, errProto
		}
		if n == 0 {
			if _, err := k.br.ReadSlice('\n'); err != nil {
				return 0, nil, err
			}
			return status, k.body, nil
		}
		if _, err := k.readN(int(n)); err != nil {
			return 0, nil, err
		}
		if _, err := k.br.Discard(2); err != nil {
			return 0, nil, err
		}
	}
}

// readN appends n body bytes to k.body.
func (k *conn) readN(n int) ([]byte, error) {
	start := len(k.body)
	if cap(k.body)-start < n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, k.body)
		k.body = grown
	}
	k.body = k.body[:start+n]
	if _, err := io.ReadFull(k.br, k.body[start:]); err != nil {
		return nil, err
	}
	return k.body, nil
}

func atoi(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func trim(b []byte) []byte { return bytes.TrimSpace(b) }

func hasFold(line []byte, prefix string) bool {
	return len(line) >= len(prefix) && bytes.EqualFold(line[:len(prefix)], []byte(prefix))
}

// inMemory calls a handler directly, without a socket: the service's
// cost minus the transport.
type inMemory struct {
	h   http.Handler
	rec recorder
}

func (m *inMemory) do(r *request) (int, []byte, error) {
	hr, err := http.NewRequest(r.method, "http://bench"+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	m.rec.reset()
	m.h.ServeHTTP(&m.rec, hr)
	return m.rec.status, m.rec.buf.Bytes(), nil
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *recorder) reset() {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	clear(w.hdr)
	w.status = 0
	w.buf.Reset()
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

// maskedKeys name reply fields whose numbers legitimately differ from
// one round to the next: timings, and the grammar's version and
// lifetime counters after rule updates.
var maskedKeys = [][]byte{
	[]byte(`"duration_us":`),
	[]byte(`"version":`),
	[]byte(`"states_invalidated_total":`),
}

// sameReply reports whether got equals want apart from the numbers of
// the masked fields. It allocates nothing.
func sameReply(got, want []byte) bool {
	i, j := 0, 0
	for i < len(got) && j < len(want) {
		if k := maskedAt(want[j:]); k > 0 && bytes.HasPrefix(got[i:], want[j:j+k]) {
			i, j = skipNum(got, i+k), skipNum(want, j+k)
			continue
		}
		if got[i] != want[j] {
			return false
		}
		i++
		j++
	}
	return i == len(got) && j == len(want)
}

// maskedAt returns the length of the masked key b starts with, or 0.
func maskedAt(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return 0
	}
	for _, k := range maskedKeys {
		if bytes.HasPrefix(b, k) {
			return len(k)
		}
	}
	return 0
}

func skipNum(b []byte, i int) int {
	for i < len(b) && (b[i] == '-' || (b[i] >= '0' && b[i] <= '9')) {
		i++
	}
	return i
}

// rawResponder answers every request with a fixed reply, parsing only
// the Content-Length it needs to find the next request. Driving the
// load generator against it measures the generator's own residual
// allocations.
func rawResponder(ln net.Listener, done chan<- struct{}) {
	defer close(done)
	c, err := ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	reply := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}")
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		length := 0
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(line) <= 2 {
				break
			}
			if hasFold(line, "Content-Length:") {
				length = atoi(trim(line[len("Content-Length:"):]))
			}
		}
		if _, err := br.Discard(length); err != nil {
			return
		}
		if _, err := c.Write(reply); err != nil {
			return
		}
	}
}
