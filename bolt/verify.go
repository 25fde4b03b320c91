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
	data, err := s.image("VerifyOutput")
	if err != nil {
		return nil, err
	}
	// The checker shares none of the emitter's state, only its pool:
	// WithJobs bounds the check as it bounds the pipeline.
	res, err := bincheck.CheckJobs(data, s.opts.Jobs)
	if err != nil {
		return nil, fmt.Errorf("bolt: VerifyOutput: %w", err)
	}
	s.rep.Verify = res // Optimize set res and rep together
	return res, nil
}
