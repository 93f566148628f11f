package main

import (
	"go/token"
	"testing"
)

// Comment-only and blank lines do not count, block comments included;
// a line of code counts once however many tokens or trailing comments
// it carries.
func TestCodeLines(t *testing.T) {
	src := `// Package p is counted.
package p

/* a block
   comment */
import "fmt" // trailing

func f() {
	fmt.Println("a", /* inline */ "b")

}
`
	if got := codeLines(token.NewFileSet(), "p.go", []byte(src)); got != 5 {
		t.Fatalf("codeLines = %d, want 5 (package, import, func, call, brace)", got)
	}
}
