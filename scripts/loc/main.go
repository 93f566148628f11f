// Command loc is the size census every change reports its net lines
// against. For each package directory under internal/ and cmd/ it
// counts the lines of non-test Go files that hold code: a line holding
// only a comment, or nothing, does not count; a line of code with a
// trailing comment does. Run from the repository root:
//
//	go run ./scripts/loc
//
// It prints one row per package, sorted by path, and the total.
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// codeLines counts the lines of src that hold at least one token other
// than a comment.
func codeLines(fset *token.FileSet, name string, src []byte) int {
	var s scanner.Scanner
	file := fset.AddFile(name, fset.Base(), len(src))
	s.Init(file, src, nil, 0) // comments are skipped
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return len(lines)
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line end, not written
		}
		lines[file.Line(pos)] = true
	}
}

func main() {
	fset := token.NewFileSet()
	perPkg := map[string]int{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			perPkg[filepath.ToSlash(filepath.Dir(path))] += codeLines(fset, path, src)
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(2)
		}
	}
	pkgs := make([]string, 0, len(perPkg))
	for p := range perPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	total := 0
	for _, p := range pkgs {
		fmt.Printf("%-24s %6d\n", p, perPkg[p])
		total += perPkg[p]
	}
	fmt.Printf("%-24s %6d\n", "total", total)
}
