package mechanism

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
)

// This file is a minimal DNS wire codec — just enough of RFC 1035 for
// the DNS-poisoning probe and the simulated resolvers: A-record queries,
// responses with forged A answers or NXDOMAIN, name compression on the
// parse side, and the 2-byte length prefix of DNS-over-TCP (netsim's
// transport is a stream, so every simulated resolver speaks TCP framing).
//
// The codec is deliberately small and hostile-input-safe rather than
// complete: unknown record types are skipped by RDLENGTH, compression
// pointers are bounded, and every length field is checked before use. It
// is a fuzz target (FuzzParseDNSMessage).

// DNS RCODEs the codec distinguishes.
const (
	RCodeNoError  = 0
	RCodeNXDomain = 3
)

// Record types and class used by the probe.
const (
	TypeA   = 1
	ClassIN = 1
)

// maxMessageSize bounds one framed DNS message (the TCP length prefix
// allows 64 KiB; real answers here are tiny).
const maxMessageSize = 64 << 10

// Codec errors.
var (
	ErrNameTooLong = errors.New("mechanism: dns name too long")
	ErrMalformed   = errors.New("mechanism: malformed dns message")
)

// Answer is one A-record answer.
type Answer struct {
	Name string
	TTL  uint32
	Addr netip.Addr
}

// Message is a parsed DNS message (the fields the probe consumes).
type Message struct {
	ID       uint16
	Response bool
	RCode    int
	// Question is the first question's lower-cased name ("" if none).
	Question string
	// Answers holds the A-record answers; other types are skipped.
	Answers []Answer
}

// appendName appends the wire encoding of a domain name.
func appendName(b []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	if len(name) > 253 {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if label == "" || len(label) > 63 {
				return nil, fmt.Errorf("%w: label in %q", ErrMalformed, name)
			}
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0), nil
}

// BuildQuery encodes one A/IN question with the given transaction ID
// and the RD (recursion desired) bit set.
func BuildQuery(id uint16, name string) ([]byte, error) {
	b := make([]byte, 0, 12+len(name)+6)
	b = binary.BigEndian.AppendUint16(b, id)
	b = binary.BigEndian.AppendUint16(b, 0x0100) // RD
	b = binary.BigEndian.AppendUint16(b, 1)      // QDCOUNT
	b = append(b, 0, 0, 0, 0, 0, 0)              // AN/NS/ARCOUNT
	b, err := appendName(b, name)
	if err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, TypeA)
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	return b, nil
}

// BuildResponse encodes a response to a question: the echoed question
// section plus any A answers, with the QR and RA bits set and the given
// RCODE.
func BuildResponse(id uint16, question string, rcode int, answers []Answer) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint16(b, id)
	b = binary.BigEndian.AppendUint16(b, 0x8180|uint16(rcode&0xf)) // QR|RD|RA
	b = binary.BigEndian.AppendUint16(b, 1)                        // QDCOUNT
	b = binary.BigEndian.AppendUint16(b, uint16(len(answers)))     // ANCOUNT
	b = append(b, 0, 0, 0, 0)                                      // NS/ARCOUNT
	b, err := appendName(b, question)
	if err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, TypeA)
	b = binary.BigEndian.AppendUint16(b, ClassIN)
	for _, a := range answers {
		name := a.Name
		if name == "" {
			name = question
		}
		if b, err = appendName(b, name); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, TypeA)
		b = binary.BigEndian.AppendUint16(b, ClassIN)
		b = binary.BigEndian.AppendUint32(b, a.TTL)
		if !a.Addr.Is4() {
			return nil, fmt.Errorf("%w: non-IPv4 answer %s", ErrMalformed, a.Addr)
		}
		ip := a.Addr.As4()
		b = binary.BigEndian.AppendUint16(b, 4)
		b = append(b, ip[:]...)
	}
	return b, nil
}

// parseName decodes a (possibly compressed) name starting at off,
// returning the name and the offset just past it in the *original*
// stream (compression jumps do not advance the caller's cursor).
func parseName(msg []byte, off int) (string, int, error) {
	var b strings.Builder
	jumps := 0
	end := -1 // caller-visible end, set at the first pointer
	for {
		if off >= len(msg) {
			return "", 0, ErrMalformed
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return b.String(), end, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, ErrMalformed
			}
			if end < 0 {
				end = off + 2
			}
			off = (c&0x3f)<<8 | int(msg[off+1])
			if jumps++; jumps > 32 {
				return "", 0, fmt.Errorf("%w: compression loop", ErrMalformed)
			}
		case c&0xc0 != 0:
			return "", 0, fmt.Errorf("%w: reserved label type", ErrMalformed)
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrMalformed
			}
			if b.Len() > 0 {
				b.WriteByte('.')
			}
			if b.Len()+c > 253 {
				return "", 0, ErrNameTooLong
			}
			for _, lb := range msg[off+1 : off+1+c] {
				if 'A' <= lb && lb <= 'Z' {
					lb += 'a' - 'A'
				}
				b.WriteByte(lb)
			}
			off += 1 + c
		}
	}
}

// ParseMessage decodes a DNS message: header, first question, and every
// A/IN answer. Non-A answers are skipped by their RDLENGTH. It never
// panics on hostile input.
func ParseMessage(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("%w: short header", ErrMalformed)
	}
	if len(b) > maxMessageSize {
		return nil, fmt.Errorf("%w: oversized message", ErrMalformed)
	}
	flags := binary.BigEndian.Uint16(b[2:4])
	m := &Message{
		ID:       binary.BigEndian.Uint16(b[0:2]),
		Response: flags&0x8000 != 0,
		RCode:    int(flags & 0xf),
	}
	qd := int(binary.BigEndian.Uint16(b[4:6]))
	an := int(binary.BigEndian.Uint16(b[6:8]))
	off := 12
	for i := 0; i < qd; i++ {
		name, next, err := parseName(b, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(b) {
			return nil, ErrMalformed
		}
		if i == 0 {
			m.Question = name
		}
		off = next + 4
	}
	for i := 0; i < an; i++ {
		name, next, err := parseName(b, off)
		if err != nil {
			return nil, err
		}
		if next+10 > len(b) {
			return nil, ErrMalformed
		}
		typ := binary.BigEndian.Uint16(b[next : next+2])
		class := binary.BigEndian.Uint16(b[next+2 : next+4])
		ttl := binary.BigEndian.Uint32(b[next+4 : next+8])
		rdlen := int(binary.BigEndian.Uint16(b[next+8 : next+10]))
		off = next + 10
		if off+rdlen > len(b) {
			return nil, ErrMalformed
		}
		if typ == TypeA && class == ClassIN && rdlen == 4 {
			addr := netip.AddrFrom4([4]byte(b[off : off+4]))
			m.Answers = append(m.Answers, Answer{Name: name, TTL: ttl, Addr: addr})
		}
		off += rdlen
	}
	return m, nil
}

// WriteTCP frames one message with the DNS-over-TCP 2-byte length
// prefix and writes it.
func WriteTCP(w io.Writer, msg []byte) error {
	if len(msg) > maxMessageSize {
		return fmt.Errorf("%w: oversized message", ErrMalformed)
	}
	framed := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(framed, uint16(len(msg)))
	copy(framed[2:], msg)
	_, err := w.Write(framed)
	return err
}

// ReadTCP reads one length-prefixed message.
func ReadTCP(r io.Reader) ([]byte, error) {
	var pfx [2]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(pfx[:]))
	if n == 0 {
		return nil, fmt.Errorf("%w: empty message", ErrMalformed)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// Resolve is one resolver's policy: given a lower-cased query name it
// returns the RCODE and answers of the response.
type Resolve func(name string) (rcode int, answers []Answer)

// ServeConn answers length-prefixed DNS queries on one connection with
// resolve until read error or EOF, so a Resolve serves a simulated
// resolver's port as it is.
func (resolve Resolve) ServeConn(conn net.Conn) {
	defer conn.Close()
	for {
		raw, err := ReadTCP(conn)
		if err != nil {
			return
		}
		q, err := ParseMessage(raw)
		if err != nil || q.Response || q.Question == "" {
			return
		}
		rcode, answers := resolve(q.Question)
		resp, err := BuildResponse(q.ID, q.Question, rcode, answers)
		if err != nil {
			return
		}
		if err := WriteTCP(conn, resp); err != nil {
			return
		}
	}
}
