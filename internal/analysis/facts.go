package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sync"
)

// Fact is a datum attached to a types.Object by one analyzer pass and
// visible to later passes — the same contract as x/tools analysis
// facts, scoped down to the in-process driver this module ships. A
// fact type is a pointer to a struct defined by the exporting
// analyzer; because the FactStore keys entries by the fact's dynamic
// type, two analyzers can attach facts to the same object without
// colliding.
type Fact interface {
	// AFact is a marker method; it is never called.
	AFact()
}

// factKey identifies one fact: the object it is attached to (by
// stable path, see ObjectKey) and the fact's concrete type.
type factKey struct {
	obj string
	typ reflect.Type
}

// FactStore carries facts across packages within one analysis run.
// The driver creates one store per run and threads it through every
// Pass, analyzing packages in dependency order so that facts exported
// while analyzing a package are visible when its dependents are
// analyzed.
//
// Identity subtlety: a function analyzed from source and the same
// function seen by a dependent package through gc export data are
// *different* types.Object instances. The store therefore keys facts
// by ObjectKey — a stable textual path — rather than by object
// pointer, which is exactly the role objectpath plays for x/tools.
//
// FactStore is safe for concurrent use: the race-mode driver tests
// run all analyzers in parallel over shared loader results.
type FactStore struct {
	mu sync.RWMutex
	m  map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// Export attaches fact to obj, replacing any existing fact of the
// same type. fact must be a non-nil pointer.
func (s *FactStore) Export(obj types.Object, fact Fact) {
	if s == nil || obj == nil || fact == nil {
		return
	}
	key := factKey{obj: ObjectKey(obj), typ: reflect.TypeOf(fact)}
	s.mu.Lock()
	s.m[key] = fact
	s.mu.Unlock()
}

// Import copies the fact of ptr's type attached to obj into *ptr and
// reports whether such a fact existed. ptr must be a non-nil pointer
// of the same concrete type the fact was exported with.
func (s *FactStore) Import(obj types.Object, ptr Fact) bool {
	if s == nil || obj == nil || ptr == nil {
		return false
	}
	key := factKey{obj: ObjectKey(obj), typ: reflect.TypeOf(ptr)}
	s.mu.RLock()
	stored, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// ObjectKey renders a stable cross-package identity for obj. For
// package-level functions and methods — the only objects the
// interprocedural engine attaches facts to — the key is unique and
// identical whether the object came from a source type-check or from
// gc export data: Go has no overloading, so package path + receiver
// type + name pins the function. Other objects (locals, fields) get a
// position-qualified key that is stable only within one type-check,
// which is all their intra-package uses need.
func ObjectKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := ReceiverNamed(f); recv != nil {
			return pkg + "." + recv.Origin().Obj().Name() + "." + f.Name()
		}
		return pkg + "." + f.Name()
	}
	return fmt.Sprintf("%s.%s@%d", pkg, obj.Name(), obj.Pos())
}

// ExportObjectFact attaches fact to obj in the pass's fact store.
// It is a no-op when the driver supplied no store.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.Facts.Export(obj, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj into
// *ptr, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.Facts.Import(obj, ptr)
}
