package lib

// Pair is written only by a positional literal, and read.
type Pair struct{ A, B int }

// Record has a field nothing reads and an exported one nothing writes.
type Record struct {
	seen  bool
	Label string
}

// Tagged is encoding/json's to read and write.
type Tagged struct {
	Name string `json:"name"`
}

// Base is embedded in Wrapper, and the embedded field is never named.
type Base struct{}

// Wrapper embeds Base.
type Wrapper struct{ Base }

// key is a map key, whose fields equality reads.
type key struct{ host string }

// point is compared with ==, which reads its fields.
type point struct{ x int }

// Config is public: the facade aliases it.
type Config struct{ Inner Inner }

// Inner is public: Config reaches it through an exported field.
type Inner struct{ Depth int }

// Targets spells its anonymous result type twice; the two are one.
func Targets() []struct{ Name string } {
	return []struct{ Name string }{{Name: "a"}}
}

// Use reaches each case.
func Use(r *Record) (int, bool, Tagged, Wrapper) {
	r.seen = true
	p := Pair{1, 2}
	hits := map[key]int{{"h"}: 1}
	return p.A + p.B + hits[key{"h"}] + len(r.Label) + len(Targets()[0].Name), point{1} == point{2}, Tagged{}, Wrapper{}
}
