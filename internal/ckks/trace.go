package ckks

// Op enumerates the HE operations of §II-A. Relinearize and Rotate are
// distinct here but share the KeySwitch hardware module (OP5) in the
// accelerator model, matching the paper's "we use KeySwitch to denote a
// Relinearize or Rotate operation".
type Op int

const (
	OpCCadd Op = iota
	OpPCadd
	OpPCmult
	OpCCmult
	OpRescale
	OpRelin
	OpRotate
	// NumOps is the number of distinct operations (array-sizing constant
	// for per-op accounting).
	NumOps
)

// String returns the paper's name for the operation.
func (op Op) String() string {
	switch op {
	case OpCCadd:
		return "CCadd"
	case OpPCadd:
		return "PCadd"
	case OpPCmult:
		return "PCmult"
	case OpCCmult:
		return "CCmult"
	case OpRescale:
		return "Rescale"
	case OpRelin:
		return "Relinearize"
	case OpRotate:
		return "Rotate"
	default:
		return "unknown"
	}
}

// IsKeySwitch reports whether the operation uses the KeySwitch module.
func (op Op) IsKeySwitch() bool { return op == OpRelin || op == OpRotate }

// Event is one recorded HE operation with the ciphertext level it ran at
// (the level determines how many RNS polynomials the hardware module
// processes, hence its latency).
type Event struct {
	Op    Op
	Level int
}
