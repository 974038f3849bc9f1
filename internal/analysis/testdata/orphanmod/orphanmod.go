// Package orphanmod is TestOrphanFixture's doctored module: its
// internal/lib holds two orphans and one of each case the check must
// not report.
package orphanmod

import "orphanmod/internal/lib"

// Widget re-exports lib.Widget, so Widget's exported methods are API.
type Widget = lib.Widget

// Label is a root: it is outside internal/.
func Label() string { return lib.Used() }
