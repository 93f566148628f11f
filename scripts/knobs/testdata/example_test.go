package root_test

import "repro/internal/lib"

func Example() { lib.Documented() }
