// Boltvet runs the repo's house static-analysis suite (package
// internal/lintvet): the output-determinism and context-plumbing
// invariants, go-vet style.
//
// Usage:
//
//	go run ./cmd/boltvet ./...
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load failure.
package main

import (
	"os"

	"gobolt/internal/lintvet"
)

func main() {
	os.Exit(lintvet.Main(os.Stdout, os.Stderr, os.Args[1:]))
}
