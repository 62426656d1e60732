// Package kept is only reached from tests, and its file says why.
//
//pvclint:ignore testonly the fixture's stand-in for a DESIGN-named kernel
package kept

// Kept has no non-test caller; the file-scope directive keeps it.
func Kept() int { return 4 }
