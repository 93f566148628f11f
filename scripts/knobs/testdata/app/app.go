// Package app is the non-test caller of lib.
package app

import "repro/internal/lib"

// Sizer is held, never asked its size.
var Sizer lib.Sizer = lib.S{}

// Run calls lib's API, Probe only through an interface literal.
func Run() bool {
	lib.Used()
	var b lib.Box[int]
	_ = lib.Config{Set: b.Get()}
	var x any = lib.T{}
	return x.(interface{ Probe() bool }).Probe()
}
