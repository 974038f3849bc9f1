package orphanmod_test

import (
	"testing"

	"orphanmod"
)

func TestLabel(t *testing.T) {
	if orphanmod.Label() != "used" {
		t.Fatal("Label")
	}
}
