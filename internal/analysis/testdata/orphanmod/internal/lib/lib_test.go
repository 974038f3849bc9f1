package lib

import "testing"

// helper is declared in and used by this package's tests: the check
// loads no _test.go file under internal/, so it is never reported.
func helper() *Scratch { return Orphan() }

func TestOrphan(t *testing.T) {
	if helper() == nil {
		t.Fatal("Orphan")
	}
}
