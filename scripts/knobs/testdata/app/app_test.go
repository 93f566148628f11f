package app

import (
	"testing"

	"repro/internal/lib"
)

func TestExcused(t *testing.T) {
	lib.Excused()
	var b lib.Box[int]
	b.Get()
	var s lib.Sizer = lib.S{}
	s.Size()
}
