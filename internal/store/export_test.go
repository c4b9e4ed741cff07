package store

// WithMaxSegmentBytes sets the segment rotation threshold, so the tests
// can rotate segments after a few records.
func WithMaxSegmentBytes(n int64) Option { return func(o *Options) { o.MaxSegmentBytes = n } }
