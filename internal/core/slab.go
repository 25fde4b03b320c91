package core

// Worker slabs. The two per-function stages, load:disasm+cfg and
// emit:functions, make a handful of small objects for every function
// (CFG edge lists, interned CFI states, fragment code, relocations, …).
// Each worker carves them as windows of typed arrays it owns for the
// session, so a stage allocates when a worker's slab fills, not once per
// function. A window's capacity equals its length: a pass appending to
// one reallocates it instead of writing into the next window, and its
// contents do not depend on which worker's slab holds it, so output is
// the same for every worker count.

// pace tells a worker's slabs how much of the stage is left, so that a
// refill is sized from the input rather than from a constant: every item
// of the stage has a weight (the loader uses a function's input bytes,
// the emitter its instruction count), and a refill holds half the
// worker's share of the weight still to come at the rate the worker has
// used the slab so far. The zero value sizes every refill to the request.
type pace struct {
	jobs int   // workers sharing the stage
	done int64 // weight of the items this worker has started
	rest int64 // weight of the current item and every later one
}

// next records that the worker starts item i of a stage whose weights
// have the suffix sums rest: rest[i] is the weight of items i, i+1, ….
func (p *pace) next(rest []int64, i int) {
	p.done += rest[i] - rest[i+1]
	p.rest = rest[i]
}

// chunk returns how many elements a refill holds when the worker has
// carved used elements of a slab and needs n more: half its share of the
// rest of the stage, extrapolated from its use per unit of weight, but
// never more than doubling what it has carved so far, because the first
// items are a poor sample of the rest. Taking half, the worker estimates
// again on a better sample before each further refill, so the tail the
// stage leaves unused is a part of the last, small refill rather than the
// error of one estimate over the whole rest.
func (p *pace) chunk(used, n int) int {
	need := int64(used + n)
	share := need * p.rest / (max(p.done, 1) * int64(max(p.jobs, 1)) * 2)
	return int(max(int64(n), min(need, share)))
}

// slab is one worker's arena for one element type.
type slab[T any] struct {
	free []T // the unused tail of the current chunk
	used int // elements carved so far
}

// take carves a zeroed window of n elements with cap == len, refilling
// the slab when its chunk cannot hold them; nil when n is 0.
func (s *slab[T]) take(n int, p *pace) []T {
	if n == 0 {
		return nil
	}
	if len(s.free) < n {
		s.free = make([]T, p.chunk(s.used, n))
	}
	w := s.free[:n:n]
	s.free = s.free[n:]
	s.used += n
	return w
}

// clone carves a window holding a copy of src.
func (s *slab[T]) clone(src []T, p *pace) []T {
	w := s.take(len(src), p)
	copy(w, src)
	return w
}
