package bolt

import (
	"fmt"

	"gobolt/internal/bincheck"
)

// VerifyOutput statically verifies the optimized binary with the
// independent checker in internal/bincheck: the output image is
// serialized to bytes and re-opened from scratch — re-parsed,
// re-disassembled, its CFGs rebuilt — so the verification shares none
// of the emitter's in-memory state. The result is returned and recorded
// on the session's Report (`verify` block, schema v2).
//
// Requires a successful Optimize; repeatable (each call re-verifies
// the serialized bytes). A result with error-severity findings is not
// itself an error — gates decide; see Result.Ok.
func (s *Session) VerifyOutput() (*bincheck.Result, error) {
	if s.broken {
		return nil, fmt.Errorf("bolt: VerifyOutput on a broken session")
	}
	if s.res == nil {
		return nil, fmt.Errorf("bolt: VerifyOutput before Optimize")
	}
	data, err := s.res.File.Bytes()
	if err != nil {
		return nil, fmt.Errorf("bolt: VerifyOutput: serialize: %w", err)
	}
	res, err := bincheck.Check(data)
	if err != nil {
		return nil, fmt.Errorf("bolt: VerifyOutput: %w", err)
	}
	s.rep.Verify = res // Optimize set res and rep together
	return res, nil
}
