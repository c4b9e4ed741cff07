// Package httpwire is a from-scratch HTTP/1.1 wire implementation.
//
// The standard library's net/http canonicalizes header names and stores
// them in a map, destroying the raw bytes a Shodan-style banner index and a
// WhatWeb-style fingerprinting engine depend on (the paper's Table 2 keys
// on exact header names such as "Via-Proxy" and on banner keywords). This
// package preserves header order and case on both read and write, keeps
// the raw response head for indexing, and works over any net.Conn — the
// in-memory netsim transport or a real TCP socket.
package httpwire

import (
	"strings"
)

// HeaderField is a single header line, case preserved exactly as read or
// set.
type HeaderField struct {
	Name  string
	Value string
}

// Header is an ordered collection of header fields. The zero value is
// ready to use. Lookup is case-insensitive per RFC 7230; iteration and
// serialization preserve insertion order and original case.
type Header struct {
	fields []HeaderField
}

// NewHeader builds a header from alternating name/value pairs. It panics
// on an odd number of arguments (programmer error).
func NewHeader(pairs ...string) *Header {
	if len(pairs)%2 != 0 {
		panic("httpwire: NewHeader requires name/value pairs")
	}
	h := &Header{}
	for i := 0; i < len(pairs); i += 2 {
		h.Add(pairs[i], pairs[i+1])
	}
	return h
}

// Add appends a field, preserving the given case.
func (h *Header) Add(name, value string) {
	h.fields = append(h.fields, HeaderField{Name: name, Value: value})
}

// Set replaces every field matching name (case-insensitively) with a
// single field using the given case, appending if absent.
func (h *Header) Set(name, value string) {
	out := h.fields[:0]
	replaced := false
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			if !replaced {
				out = append(out, HeaderField{Name: name, Value: value})
				replaced = true
			}
			continue
		}
		out = append(out, f)
	}
	if !replaced {
		out = append(out, HeaderField{Name: name, Value: value})
	}
	h.fields = out
}

// Del removes every field matching name, case-insensitively.
func (h *Header) Del(name string) {
	out := h.fields[:0]
	for _, f := range h.fields {
		if !strings.EqualFold(f.Name, name) {
			out = append(out, f)
		}
	}
	h.fields = out
}

// Get returns the first value whose name matches case-insensitively, or "".
func (h *Header) Get(name string) string {
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			return f.Value
		}
	}
	return ""
}

// Values returns all values whose name matches case-insensitively.
func (h *Header) Values(name string) []string {
	var out []string
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			out = append(out, f.Value)
		}
	}
	return out
}

// Has reports whether any field matches name, case-insensitively.
func (h *Header) Has(name string) bool {
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			return true
		}
	}
	return false
}

// RawName returns the exact wire-case name of the first field matching
// name case-insensitively; fingerprint signatures use this to distinguish
// e.g. "Via-Proxy" from "via-proxy".
func (h *Header) RawName(name string) (string, bool) {
	for _, f := range h.fields {
		if strings.EqualFold(f.Name, name) {
			return f.Name, true
		}
	}
	return "", false
}

// Fields returns the fields in order. The caller must not mutate the
// returned slice.
func (h *Header) Fields() []HeaderField { return h.fields }

// Clone returns a deep copy.
func (h *Header) Clone() *Header {
	c := &Header{fields: make([]HeaderField, len(h.fields))}
	copy(c.fields, h.fields)
	return c
}

// writeTo serializes the header block (without the trailing blank line).
func (h *Header) writeTo(b *strings.Builder) {
	for _, f := range h.fields {
		b.WriteString(f.Name)
		b.WriteString(": ")
		b.WriteString(f.Value)
		b.WriteString("\r\n")
	}
}

// String renders the header block, one CRLF-terminated line per field.
func (h *Header) String() string {
	var b strings.Builder
	h.writeTo(&b)
	return b.String()
}
