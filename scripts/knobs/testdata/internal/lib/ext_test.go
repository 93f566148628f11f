package lib_test

import (
	"testing"

	"repro/internal/lib"
)

func TestOnlyExternal(t *testing.T) { lib.TestOnly() }
