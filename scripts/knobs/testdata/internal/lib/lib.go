// Package lib is the library the census test counts.
package lib

// Used is called from app.
func Used() {}

// TestOnly is called only from lib's own tests (lib_test.go, and the
// external package in ext_test.go).
func TestOnly() {}

// Documented is called only from the root example.
func Documented() {}

// Excused is called only from app's test.
func Excused() {}

// T is used only as a value of an interface literal.
type T struct{}

// Probe is called only through an interface literal in app.
func (T) Probe() bool { return true }

// Sizer is an interface app holds a value of but never calls.
type Sizer interface{ Size() int }

// S is app's Sizer; nothing calls its Size.
type S struct{}

// Size is reported: Sizer's own Size is never used.
func (S) Size() int { return 0 }

// Box is instantiated in app.
type Box[V any] struct{ v V }

// Get is called only on an instantiation.
func (b *Box[V]) Get() V { return b.v }

// Config is a knob struct: app sets Set, nothing sets Unset.
type Config struct {
	Set   int
	Unset int
}
