//go:build !race

package cluster

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
