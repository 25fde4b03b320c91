// Package scratch owns the one rule every worker buffer follows: a
// buffer a worker reuses across the functions it visits is handed back
// at the length asked for, zeroed.
package scratch

import "slices"

// Zeroed returns n zero elements. It reuses buf's array when its
// capacity is enough; otherwise it grows it with append's size classes,
// so a worker that sees ever larger functions reallocates rarely.
func Zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}
