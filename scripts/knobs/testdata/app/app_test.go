package app

import (
	"testing"

	"repro/internal/lib"
)

func TestExcused(t *testing.T) { lib.Excused() }
