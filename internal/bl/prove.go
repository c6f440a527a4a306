package bl

import (
	"errors"
	"fmt"

	"repro/internal/cfg"
)

// ErrTooManyPaths is returned (wrapped) by Prove when a function has more
// acyclic paths than the enumeration limit. Callers that verify whole
// programs typically skip such functions rather than fail.
var ErrTooManyPaths = errors.New("too many acyclic paths to enumerate")

// DefaultProveLimit is the default enumeration bound for Prove: large
// enough for every bundled workload, small enough that a full proof stays
// interactive.
const DefaultProveLimit = uint64(1) << 16

// Proof summarizes a successful exhaustive check of one numbering.
type Proof struct {
	// Paths is the number of acyclic paths enumerated; it equals
	// Numbering.NumPaths.
	Paths uint64
	// Starts is the number of distinct start blocks (the entry plus one
	// per loop header).
	Starts int
	// MaxLen is the length in blocks of the longest acyclic path.
	MaxLen int
}

// Prove exhaustively validates the Ball–Larus numbering by enumerating
// every acyclic path of the transformed CFG and replaying the
// instrumentation along it: starting from the entry (register 0) and from
// each loop header (register HeaderReset), it follows every non-back
// successor edge adding EdgeVal, terminates at the exit or at a back edge
// (adding the back edge's pseudo value), and requires that
//
//   - every emitted ID lies in [0, NumPaths),
//   - no two paths emit the same ID and all NumPaths IDs are hit
//     (the numbering is a bijection, i.e. unique and compact), and
//   - Regenerate maps each ID back to exactly the block sequence that
//     produced it,
//
// plus that the BackEdge instrumentation table agrees with EdgeVal and
// HeaderReset. limit caps the enumeration (0 means DefaultProveLimit);
// functions with more paths fail with ErrTooManyPaths.
func Prove(n *Numbering, limit uint64) (Proof, error) {
	if limit == 0 {
		limit = DefaultProveLimit
	}
	if n.NumPaths > limit {
		return Proof{}, fmt.Errorf("bl: %s: %d paths exceeds limit %d: %w",
			n.Graph.Name, n.NumPaths, limit, ErrTooManyPaths)
	}

	// The instrumentation table must agree with the numbering it was
	// derived from.
	for e, instr := range n.BackEdge {
		blk := n.Graph.Block(e.From)
		found := false
		for si, s := range blk.Succs {
			if s == e.To && n.IsBack[e.From][si] {
				found = true
				if instr.EmitAdd != n.EdgeVal[e.From][si] {
					return Proof{}, fmt.Errorf("bl: %s: back edge %v EmitAdd=%d but edge value is %d",
						n.Graph.Name, e, instr.EmitAdd, n.EdgeVal[e.From][si])
				}
			}
		}
		if !found {
			return Proof{}, fmt.Errorf("bl: %s: instrumented back edge %v is not a back edge", n.Graph.Name, e)
		}
		if !n.IsLoopHeader(e.To) {
			return Proof{}, fmt.Errorf("bl: %s: back edge %v targets a non-header", n.Graph.Name, e)
		}
		if instr.Reset != n.HeaderReset(e.To) {
			return Proof{}, fmt.Errorf("bl: %s: back edge %v Reset=%d but header reset is %d",
				n.Graph.Name, e, instr.Reset, n.HeaderReset(e.To))
		}
	}

	proof := Proof{}
	seen := make([]bool, n.NumPaths)
	var seq []cfg.BlockID

	// emit finishes one enumerated path with ID id and block sequence seq.
	emit := func(id uint64) error {
		if id >= n.NumPaths {
			return fmt.Errorf("bl: %s: path %v emits ID %d outside [0,%d)",
				n.Graph.Name, seq, id, n.NumPaths)
		}
		if seen[id] {
			return fmt.Errorf("bl: %s: path ID %d emitted by two distinct paths (second: %v)",
				n.Graph.Name, id, seq)
		}
		seen[id] = true
		proof.Paths++
		if len(seq) > proof.MaxLen {
			proof.MaxLen = len(seq)
		}
		regen, err := n.Regenerate(id)
		if err != nil {
			return fmt.Errorf("bl: %s: enumerated path ID %d fails to regenerate: %w", n.Graph.Name, id, err)
		}
		if len(regen) != len(seq) {
			return fmt.Errorf("bl: %s: path ID %d regenerates %v, enumerated %v", n.Graph.Name, id, regen, seq)
		}
		for i := range regen {
			if regen[i] != seq[i] {
				return fmt.Errorf("bl: %s: path ID %d regenerates %v, enumerated %v", n.Graph.Name, id, regen, seq)
			}
		}
		return nil
	}

	// walk explores every acyclic continuation from block b with register
	// value r. The non-back edges form a DAG, so recursion terminates.
	var walk func(b cfg.BlockID, r uint64) error
	walk = func(b cfg.BlockID, r uint64) error {
		seq = append(seq, b)
		defer func() { seq = seq[:len(seq)-1] }()
		if b == n.Graph.Exit {
			return emit(r)
		}
		blk := n.Graph.Block(b)
		for si, s := range blk.Succs {
			if n.IsBack[b][si] {
				// Pseudo edge b->EXIT: the path ends here.
				if err := emit(r + n.EdgeVal[b][si]); err != nil {
					return err
				}
				continue
			}
			if err := walk(s, r+n.EdgeVal[b][si]); err != nil {
				return err
			}
		}
		return nil
	}

	proof.Starts = 1
	if err := walk(n.Graph.Entry, n.EntryValue()); err != nil {
		return Proof{}, err
	}
	for h := cfg.BlockID(0); int(h) < n.Graph.NumBlocks(); h++ {
		if !n.IsLoopHeader(h) {
			continue
		}
		proof.Starts++
		if err := walk(h, n.HeaderReset(h)); err != nil {
			return Proof{}, err
		}
	}
	if proof.Paths != n.NumPaths {
		return Proof{}, fmt.Errorf("bl: %s: enumerated %d paths but NumPaths=%d (numbering not compact)",
			n.Graph.Name, proof.Paths, n.NumPaths)
	}
	return proof, nil
}
