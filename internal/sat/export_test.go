package sat

// ProofStep and its values say what a proof log is told.
type ProofStep = proofStep

const (
	ProofInput  = proofInput
	ProofLearnt = proofLearnt
	ProofUnsat  = proofUnsat
)

// NewProof is the hook New consults: while *NewProof is set, every new
// solver reports its clauses and UNSAT answers to the log it returns.
var NewProof = &newProof
