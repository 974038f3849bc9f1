package lib

import "fmt"

// Used is called by the root package.
func Used() string { return fmt.Sprint(label{}) }

type label struct{}

// String is called only through fmt.Stringer.
func (label) String() string { return "used" }

// Widget is re-exported by the root package's alias.
type Widget struct{}

// Spin has no caller, but it is a method of an aliased type.
func (*Widget) Spin() {}

// Ignored has no caller, but is exempt.
//
//threadvet:ignore orphan exercises the directive
func Ignored() { counter++ }

// counter is used only by Ignored, which the exemption makes a root.
var counter int

// Orphan is called only by this package's tests, which do not count.
//
// Orphan is the first of the two orphans the fixture test expects.
func Orphan() *Scratch { return &Scratch{} }

// Scratch is the second orphan: only Orphan uses it.
type Scratch struct{}
