package obj

// SymID is a packed numeric symbol reference for emission relocations.
// gobolt's rewriter resolves symbols by ordinal, not name, to keep the
// hot emit phase free of string interning; the packing is
//
//	kind<<61 | payload
//
// where the payload layout depends on the kind:
//
//	SymFunc:  payload = function ordinal
//	SymBlock: payload = ordinal<<24 | block index
//	SymAbs:   payload = absolute address (data, PLT stubs, unmoved code)
//
// The encoding is this package's alone: the one field is unexported, so
// outside internal/obj an ID can only be built with FuncSym/BlockSym/
// AbsSym and read with Kind and the per-kind accessors — a shift, mask or
// integer conversion does not compile. It stays an 8-byte, comparable,
// pointer-free value whose zero value has Kind SymNone.
type SymID struct{ bits uint64 }

// SymKind discriminates the payload layout of a packed SymID.
type SymKind uint8

// Symbol kinds. SymNone is the kind of the zero SymID, an unset ID.
const (
	SymNone  SymKind = 0
	SymFunc  SymKind = 1
	SymBlock SymKind = 2
	SymAbs   SymKind = 3
)

const (
	symKindShift = 61
	symPayload   = 1<<symKindShift - 1
	symBlockBits = 24
	symBlockIdx  = 1<<symBlockBits - 1
)

// MaxFuncBlocks is the block-index capacity of a SymBlock payload: a
// function with more blocks than this cannot be emitted.
const MaxFuncBlocks = 1 << symBlockBits

func pack(k SymKind, payload uint64) SymID { return SymID{uint64(k)<<symKindShift | payload} }

func (id SymID) payload() uint64 { return id.bits & symPayload }

// FuncSym packs a function-entry reference by ordinal.
func FuncSym(ord int) SymID { return pack(SymFunc, uint64(ord)) }

// BlockSym packs a basic-block reference: function ordinal plus block
// index within that function.
func BlockSym(ord, idx int) SymID { return pack(SymBlock, uint64(ord)<<symBlockBits|uint64(idx)) }

// AbsSym packs an absolute address (data, PLT stubs, unmoved code).
func AbsSym(addr uint64) SymID { return pack(SymAbs, addr) }

// Kind returns the payload discriminator.
func (id SymID) Kind() SymKind { return SymKind(id.bits >> symKindShift) }

// FuncOrd returns the function ordinal of a SymFunc ID.
func (id SymID) FuncOrd() int { return int(id.payload()) }

// BlockRef returns the function ordinal and block index of a SymBlock ID.
func (id SymID) BlockRef() (ord, idx int) {
	p := id.payload()
	return int(p >> symBlockBits), int(p & symBlockIdx)
}

// AbsAddr returns the absolute address of a SymAbs ID.
func (id SymID) AbsAddr() uint64 { return id.payload() }
