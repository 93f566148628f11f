// Package lib is the library the census test counts.
package lib

// Used is what the product runs.
func Used() {}

// TestOnly is called only from lib's own tests (lib_test.go, and the
// external package in ext_test.go).
func TestOnly() {}

// Excused is called only from app's test.
func Excused() {}

// helper runs nowhere; being unexported, it needs only a reason.
func helper() {}

// Box's Get is a generic method, which the listing names without its
// receiver.
type Box[V any] struct{ v V }

// Get is called only from app's test.
func (b *Box[V]) Get() V { return b.v }

// Config is a knob struct: app sets Set, nothing sets Unset.
type Config struct {
	Set   int
	Unset int
}

// Wired is called from app's non-test code, which no run reaches.
func Wired() {}

// Sizer is an interface app's test calls Size through.
type Sizer interface{ Size() int }

// S is the Sizer app's test holds.
type S struct{}

// Size is called only through Sizer.
func (S) Size() int { return 0 }
