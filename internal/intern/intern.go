// Package intern provides the process-wide basic-block labels. The same
// ".LBB<i>" strings repeat across every function in a binary, so the
// loader takes them from one precomputed table instead of formatting a
// fresh string per block.
package intern

import "strconv"

// nLabels bounds the precomputed block-label table; functions with more
// basic blocks than this exist but are rare enough that falling back to
// a fresh allocation does not show up in profiles.
const nLabels = 1024

var lbb = func() [nLabels]string {
	var a [nLabels]string
	for i := range a {
		a[i] = ".LBB" + strconv.Itoa(i)
	}
	return a
}()

// Label returns the canonical ".LBB<i>" basic-block label. Labels repeat
// across every function in a binary, so they are process-wide constants.
func Label(i int) string {
	if i >= 0 && i < nLabels {
		return lbb[i]
	}
	return ".LBB" + strconv.Itoa(i)
}
