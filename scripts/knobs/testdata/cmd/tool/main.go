// Command tool is the product's one binary.
package main

import "repro/internal/lib"

func main() { lib.Used() }
