// Package fixture is a facade for the unreached-API gate's own test.
package fixture

import (
	"fmt"

	"fixture/internal/lib"
)

// Namer is an interface the module declares.
type Namer interface{ Name() string }

// Config is public API, with the exported fields of the struct types
// it reaches.
type Config = lib.Config

// Run reaches lib.Used directly, and lib.Shape's methods only through
// Namer and fmt.Stringer.
func Run() (Namer, fmt.Stringer, lib.Counter, []string) {
	lib.Use(&lib.Record{})
	return lib.Shape{}, lib.Shape{}, lib.Counter{}, lib.Used()
}
