//go:build race

package cluster

// raceBuild reports a -race build. The race detector's instrumentation
// keeps the temporary of append(s, make([]T, n)...), which slices.Grow
// relies on the compiler to elide, so a grown slice costs two
// allocations there instead of one.
const raceBuild = true
