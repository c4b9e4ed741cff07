// Package lib declares what the unreached-API gate must and must not
// report.
package lib

import "sort"

// Used is called by the facade.
func Used() []string { return sort.StringSlice{"a"} }

// Dead is exported, and nothing calls it.
func Dead() {}

// Shape is converted to interfaces and never called directly.
type Shape struct{}

func (Shape) Name() string   { return "shape" }
func (Shape) String() string { return "shape" }

// Counter implements no interface.
type Counter struct{ n int }

// Len shares its name with sort.Interface's, which Counter does not
// implement.
func (c Counter) Len() int { return c.n }
