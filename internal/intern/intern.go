// Package intern deduplicates strings. At nation scale the synthetic
// world serves the same handful of banner templates from tens of
// thousands of hosts; without interning every scanned banner would
// carry its own copy of the status line, headers and body excerpt.
// A Table folds byte-identical values onto one backing string so the
// scan index holds one copy per distinct template, not per host.
//
// Tables are safe for concurrent use. The zero value is not usable;
// call NewTable.
package intern

import "sync"

// Table interns strings: String and Bytes return a canonical string
// equal to the input, allocating only the first time a given value is
// seen.
type Table struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewTable returns an empty interning table.
func NewTable() *Table {
	return &Table{m: make(map[string]string)}
}

// String returns the canonical copy of s.
func (t *Table) String(s string) string {
	if s == "" {
		return ""
	}
	t.mu.RLock()
	c, ok := t.m[s]
	t.mu.RUnlock()
	if ok {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.m[s]; ok {
		return c
	}
	t.m[s] = s
	return s
}

// Bytes returns the canonical string equal to b, allocating a new
// string only when b has not been seen before. The map lookup itself
// does not allocate (Go's map[string]string supports []byte keys via
// the compiler's m[string(b)] optimization).
func (t *Table) Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	t.mu.RLock()
	c, ok := t.m[string(b)]
	t.mu.RUnlock()
	if ok {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.m[string(b)]; ok {
		return c
	}
	s := string(b)
	t.m[s] = s
	return s
}
