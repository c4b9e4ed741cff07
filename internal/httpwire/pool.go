package httpwire

import (
	"bufio"
	"bytes"
	"io"
	"sync"
)

// ReadBuffer bundles the per-read scratch state — a bufio.Reader, a head
// accumulator, and a body arena — so hot probe loops (scanner banner
// grabs, fingerprint sweeps) stop paying a fresh 4 KiB reader plus head
// clone plus body allocation per connection, and client exchanges and
// served connections stop paying the reader (Reader).
//
// Ownership rule (see DESIGN.md §12): a Response produced by
// ReadResponseBuffered, and the head and body ReadRaw returns, BORROW the
// buffer — they alias the buffer's storage and are valid only until the
// next read on the same buffer or Release, whichever comes first.
// Callers that keep any part of the response must copy it first
// (Response.Clone, or string conversions of the needed spans).
// Paths that retain whole responses (measurement chains) must stay on
// ReadResponse, which returns owned memory.
type ReadBuffer struct {
	br   *bufio.Reader
	head bytes.Buffer
	body []byte
}

var readBufPool = sync.Pool{
	New: func() any {
		return &ReadBuffer{br: bufio.NewReader(nil)}
	},
}

// GetReadBuffer borrows a buffer from the pool.
func GetReadBuffer() *ReadBuffer {
	return readBufPool.Get().(*ReadBuffer)
}

// Release returns the buffer to the pool. The caller must not touch the
// buffer — or any Response read through it — afterwards.
func (b *ReadBuffer) Release() {
	b.br.Reset(nil) // drop the conn reference so the pool doesn't pin it
	if cap(b.body) > maxPooledArena {
		// One large body must not ride along with every later borrower,
		// such as a keep-alive loop holding its buffer for the life of
		// its connection.
		b.body = nil
	}
	readBufPool.Put(b)
}

// maxPooledArena bounds the body arena a pooled buffer keeps.
const maxPooledArena = 64 << 10

// Reader points b's bufio.Reader at r and returns it, for parsing with
// ReadRequest or ReadResponse directly: a connection's keep-alive loop,
// or one exchange whose owned response outlives the buffer. It is valid
// until Release, which drops whatever it buffered past the last parse.
func (b *ReadBuffer) Reader(r io.Reader) *bufio.Reader {
	b.br.Reset(r)
	return b.br
}

// ReadResponseBuffered parses one response from r using b's pooled
// scratch state. isHEAD suppresses body reading for responses to HEAD
// requests. The returned response borrows b (see ReadBuffer); it is
// invalidated by the next read on b and by Release.
func ReadResponseBuffered(b *ReadBuffer, r io.Reader, isHEAD bool) (*Response, error) {
	hdr := &Header{}
	head, body, err := b.read(r, isHEAD, hdr)
	if err != nil {
		return nil, err
	}
	return newResponse(b.head.Bytes(), head, hdr, body), nil
}

// ReadRaw reads one response to a non-HEAD request from r, as
// ReadResponseBuffered does, but builds no Response, Header or per-line
// strings: it returns the raw head (status line through the blank line)
// and the body, both borrowing b. It fails exactly when ReadResponse
// would, and a warm buffer reads without allocating.
func (b *ReadBuffer) ReadRaw(r io.Reader) (head, body []byte, err error) {
	if _, body, err = b.read(r, false, nil); err != nil {
		return nil, nil, err
	}
	return b.head.Bytes(), body, nil
}

// read runs readResponse over r with b's reader, head buffer and body
// arena, keeping the arena's growth for the next read.
func (b *ReadBuffer) read(r io.Reader, isHEAD bool, hdr *Header) (responseHead, []byte, error) {
	b.br.Reset(r)
	b.head.Reset()
	if b.body == nil {
		b.body = make([]byte, 0, 4096)
	}
	head, body, arena, err := readResponse(b.br, isHEAD, &b.head, hdr, b.body[:0:cap(b.body)])
	b.body = arena
	return head, body, err
}
