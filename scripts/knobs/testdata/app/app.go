// Package app sets lib's knob and calls lib; the census does not count
// it (it is no root, cmd/** or internal/** package).
package app

import "repro/internal/lib"

// Config is lib's Config with its one knob set.
var Config = lib.Config{Set: 1}

// Run calls what the product's runs never reach.
func Run() { lib.Wired() }
