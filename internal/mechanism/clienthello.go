package mechanism

import (
	"encoding/binary"
	"fmt"
)

// This file is a minimal TLS ClientHello builder/parser — just enough of
// RFC 8446's handshake framing for SNI filtering and its probes: build a
// ClientHello with (or, for the ESNI-style omission probe, without) a
// server_name extension, recover the SNI from a captured record the way
// a DPI middlebox does, and recognize a ServerHello coming back. No
// cryptography is involved; the handshake never proceeds past the first
// flight. The parser is a fuzz target (FuzzParseClientHello).

// TLS record and handshake constants.
const (
	// RecordHandshake is the TLS record content type for handshake
	// messages — the first byte a DPI box sniffs to spot a TLS flow.
	RecordHandshake = 0x16

	handshakeClientHello = 1
	handshakeServerHello = 2
	extServerName        = 0
	sniHostName          = 0
)

// maxRecordSize bounds one TLS record's payload (RFC 8446 §5.1).
const maxRecordSize = 1 << 14

// ErrNotTLS reports bytes that are not a TLS handshake record.
var ErrNotTLS = fmt.Errorf("mechanism: not a tls handshake record")

// RecordLength inspects a TLS record header and returns the total frame
// size (header plus payload). ok is false while fewer than 5 bytes are
// available or the bytes cannot begin a handshake record — the contract
// a stream sniffer needs to decide "wait for more" versus "not TLS".
func RecordLength(b []byte) (n int, ok bool) {
	if len(b) >= 1 && b[0] != RecordHandshake {
		return 0, false
	}
	if len(b) < 5 {
		return 0, false
	}
	plen := int(binary.BigEndian.Uint16(b[3:5]))
	if plen == 0 || plen > maxRecordSize {
		return 0, false
	}
	return 5 + plen, true
}

// BuildClientHello encodes one TLS ClientHello record. A non-empty
// serverName becomes a server_name extension; an empty serverName omits
// the extension entirely (the ESNI-style omission probe). The hello is
// fully deterministic: the 32 random bytes derive from the server name.
func BuildClientHello(serverName string) []byte {
	// Handshake body.
	body := make([]byte, 0, 128)
	body = append(body, 0x03, 0x03) // client_version TLS 1.2
	var seed uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < len(serverName); i++ {
		seed = (seed ^ uint64(serverName[i])) * 0x100000001b3
	}
	for i := 0; i < 32; i += 8 {
		body = binary.BigEndian.AppendUint64(body, splitmix64(seed+uint64(i)))
	}
	body = append(body, 0)                      // session_id length
	body = append(body, 0x00, 0x04)             // cipher_suites length
	body = append(body, 0xc0, 0x2f, 0x00, 0x9c) // two suites
	body = append(body, 0x01, 0x00)             // null compression
	var exts []byte
	if serverName != "" {
		name := []byte(serverName)
		// server_name extension: list(type=host_name, name).
		exts = binary.BigEndian.AppendUint16(exts, extServerName)
		exts = binary.BigEndian.AppendUint16(exts, uint16(5+len(name)))
		exts = binary.BigEndian.AppendUint16(exts, uint16(3+len(name)))
		exts = append(exts, sniHostName)
		exts = binary.BigEndian.AppendUint16(exts, uint16(len(name)))
		exts = append(exts, name...)
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(exts)))
	body = append(body, exts...)

	// Handshake header + record header.
	msg := make([]byte, 0, 9+len(body))
	msg = append(msg, handshakeClientHello, byte(len(body)>>16), byte(len(body)>>8), byte(len(body)))
	msg = append(msg, body...)
	rec := make([]byte, 0, 5+len(msg))
	rec = append(rec, RecordHandshake, 0x03, 0x01)
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(msg)))
	return append(rec, msg...)
}

// splitmix64 is the 64-bit finalizer used for the deterministic random.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// ParseClientHello recovers the SNI from a TLS record holding a
// ClientHello, the way an on-path DPI box does. present reports whether
// a server_name extension was found (a well-formed hello without one —
// the ESNI-style probe — parses with present == false). Hostile input
// returns an error, never a panic.
func ParseClientHello(b []byte) (sni string, present bool, err error) {
	n, ok := RecordLength(b)
	if !ok || len(b) < n {
		return "", false, ErrNotTLS
	}
	p := b[5:n]
	if len(p) < 4 || p[0] != handshakeClientHello {
		return "", false, ErrNotTLS
	}
	hlen := int(p[1])<<16 | int(p[2])<<8 | int(p[3])
	p = p[4:]
	if hlen != len(p) {
		return "", false, fmt.Errorf("%w: handshake length", ErrMalformed)
	}
	// client_version + random.
	if len(p) < 34 {
		return "", false, fmt.Errorf("%w: short hello", ErrMalformed)
	}
	p = p[34:]
	// session_id.
	if len(p) < 1 || len(p) < 1+int(p[0]) {
		return "", false, fmt.Errorf("%w: session id", ErrMalformed)
	}
	p = p[1+int(p[0]):]
	// cipher_suites.
	if len(p) < 2 {
		return "", false, fmt.Errorf("%w: cipher suites", ErrMalformed)
	}
	cs := int(binary.BigEndian.Uint16(p))
	if len(p) < 2+cs {
		return "", false, fmt.Errorf("%w: cipher suites", ErrMalformed)
	}
	p = p[2+cs:]
	// compression_methods.
	if len(p) < 1 || len(p) < 1+int(p[0]) {
		return "", false, fmt.Errorf("%w: compression", ErrMalformed)
	}
	p = p[1+int(p[0]):]
	// extensions (optional).
	if len(p) == 0 {
		return "", false, nil
	}
	if len(p) < 2 {
		return "", false, fmt.Errorf("%w: extensions length", ErrMalformed)
	}
	el := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if el > len(p) {
		return "", false, fmt.Errorf("%w: extensions length", ErrMalformed)
	}
	p = p[:el]
	for len(p) >= 4 {
		typ := binary.BigEndian.Uint16(p)
		xl := int(binary.BigEndian.Uint16(p[2:]))
		p = p[4:]
		if xl > len(p) {
			return "", false, fmt.Errorf("%w: extension body", ErrMalformed)
		}
		if typ == extServerName {
			return parseSNI(p[:xl])
		}
		p = p[xl:]
	}
	if len(p) != 0 {
		return "", false, fmt.Errorf("%w: trailing extension bytes", ErrMalformed)
	}
	return "", false, nil
}

// parseSNI decodes a server_name extension body.
func parseSNI(p []byte) (string, bool, error) {
	if len(p) < 2 {
		return "", false, fmt.Errorf("%w: sni list", ErrMalformed)
	}
	ll := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if ll > len(p) {
		return "", false, fmt.Errorf("%w: sni list", ErrMalformed)
	}
	p = p[:ll]
	for len(p) >= 3 {
		typ := p[0]
		nl := int(binary.BigEndian.Uint16(p[1:]))
		p = p[3:]
		if nl > len(p) {
			return "", false, fmt.Errorf("%w: sni name", ErrMalformed)
		}
		if typ == sniHostName {
			name := p[:nl]
			lower := make([]byte, len(name))
			for i, c := range name {
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				lower[i] = c
			}
			return string(lower), true, nil
		}
		p = p[nl:]
	}
	return "", false, fmt.Errorf("%w: sni list exhausted", ErrMalformed)
}

// BuildServerHello encodes a minimal ServerHello record — the bytes a
// simulated TLS responder answers a ClientHello with, and all the SNI
// probe needs to conclude "the handshake got through".
func BuildServerHello() []byte {
	body := make([]byte, 0, 48)
	body = append(body, 0x03, 0x03) // server_version TLS 1.2
	for i := 0; i < 32; i += 8 {
		body = binary.BigEndian.AppendUint64(body, splitmix64(uint64(0x5e77e7*i+1)))
	}
	body = append(body, 0)          // session_id length
	body = append(body, 0xc0, 0x2f) // chosen suite
	body = append(body, 0x00)       // null compression

	msg := make([]byte, 0, 4+len(body))
	msg = append(msg, handshakeServerHello, byte(len(body)>>16), byte(len(body)>>8), byte(len(body)))
	msg = append(msg, body...)
	rec := make([]byte, 0, 5+len(msg))
	rec = append(rec, RecordHandshake, 0x03, 0x03)
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(msg)))
	return append(rec, msg...)
}

// IsServerHello reports whether b begins with a TLS handshake record
// whose first handshake message is a ServerHello.
func IsServerHello(b []byte) bool {
	return len(b) >= 6 && b[0] == RecordHandshake && b[5] == handshakeServerHello
}
