// Package clock is the one time base of the request path: a Nanos is
// an int64 count of nanoseconds since a process epoch taken once, read
// from the monotonic clock alone. A deadline is a Nanos too, with Never
// for none, so a shed check is one integer compare. The converters are
// for the edges: time.Time in the public API, unix nanoseconds on the
// wire and in exported trace stamps.
package clock

import (
	"math"
	"time"
)

// Nanos is a point in time: nanoseconds since the process epoch.
// Differences between two Nanos are time.Durations.
type Nanos int64

// Never is the deadline of a request that has none: no Nanos is after it.
const Never Nanos = math.MaxInt64

var (
	epoch     = time.Now()
	epochUnix = epoch.UnixNano()
)

// Now reads the monotonic clock.
func Now() Nanos { return Nanos(time.Since(epoch)) }

// Of converts a time.Time, monotonic or wall-only; the zero Time is
// Never.
func Of(t time.Time) Nanos {
	if t.IsZero() {
		return Never
	}
	return Nanos(t.Sub(epoch))
}

// Time converts n back to a time.Time; Never is the zero Time.
func (n Nanos) Time() time.Time {
	if n == Never {
		return time.Time{}
	}
	return epoch.Add(time.Duration(n))
}

// FromUnix converts unix nanoseconds, the wire's deadline encoding, in
// which 0 is Never.
func FromUnix(ns int64) Nanos {
	if ns == 0 {
		return Never
	}
	return Nanos(ns - epochUnix)
}

// Unix converts n to unix nanoseconds; Never is 0.
func (n Nanos) Unix() int64 {
	if n == Never {
		return 0
	}
	return int64(n) + epochUnix
}
