package engine

import (
	"fmt"
	"time"
)

// EventKind classifies a progress event.
type EventKind int

const (
	// EventStart fires before each attempt.
	EventStart EventKind = iota
	// EventRetry fires when an attempt failed and another will follow.
	EventRetry
	// EventDone fires when an item succeeds.
	EventDone
	// EventFail fires when an item exhausts its attempts.
	EventFail
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventRetry:
		return "retry"
	case EventDone:
		return "done"
	case EventFail:
		return "fail"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one structured progress notification from a pooled stage.
type Event struct {
	// Stage names the pipeline stage ("validate", "measure", ...).
	Stage string
	// Kind is the event class.
	Kind EventKind
	// Item is the work item's index within the stage's input slice.
	Item int
	// Attempt counts from 1.
	Attempt int
	// Elapsed is the attempt latency (zero for EventStart).
	Elapsed time.Duration
	// Err carries the attempt's failure for EventRetry/EventFail.
	Err error
}

// Observer receives progress events. Implementations must be safe for
// concurrent use — pool workers deliver events from many goroutines.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// observe delivers an event if an observer is installed.
func (c Config) observe(ev Event) {
	if c.Observer != nil {
		c.Observer.Observe(ev)
	}
}
