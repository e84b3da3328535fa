//go:build !race

// Package raceflag reports whether the race detector is compiled in. Tests
// that pin allocation counts skip themselves under -race, whose
// instrumentation allocates on its own.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
