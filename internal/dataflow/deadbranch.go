package dataflow

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/wlc"
)

// DeadBranchReport summarizes one EliminateDeadBranches run.
type DeadBranchReport struct {
	// BranchesFolded counts conditional terminators rewritten to jumps
	// because one side was statically infeasible.
	BranchesFolded int
	// BlocksRemoved counts blocks deleted as unreachable.
	BlocksRemoved int
	// SkippedFuncs lists functions left untouched because pruning would
	// have produced an invalid graph (e.g. an infinite loop whose only
	// exit edge is statically dead, leaving the exit unreachable).
	SkippedFuncs []string
}

func (r *DeadBranchReport) String() string {
	return fmt.Sprintf("dead-branch: %d branch(es) folded, %d block(s) removed, %d function(s) skipped",
		r.BranchesFolded, r.BlocksRemoved, len(r.SkippedFuncs))
}

// EliminateDeadBranches is the IR-level dead-branch and
// unreachable-block elimination pass: it runs reachability-under-facts
// (the constant/interval fixpoint with branch refinement) over every
// function, rewrites conditional branches with exactly one feasible
// side into jumps, deletes blocks no feasible edge reaches, and rebuilds
// each function's CFG. Unlike the AST-level folder it sees through
// lowered registers — correlated conditions, folded moves, and values
// the front end cannot prove constant.
//
// The pass preserves semantics exactly: a pruned edge is statically
// infeasible, so no execution ever takes it, and block bodies (and
// therefore instruction counts and print effects) are untouched. A
// function whose pruned graph would not validate is left unchanged and
// reported in SkippedFuncs. The rewritten program re-verifies before
// the pass returns.
func EliminateDeadBranches(p *wlc.Program) (*DeadBranchReport, error) {
	rep := &DeadBranchReport{}
	for _, f := range p.Funcs {
		if err := eliminateFunc(f, rep); err != nil {
			return nil, err
		}
	}
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("dataflow: dead-branch pass produced invalid IR: %w", err)
	}
	return rep, nil
}

func eliminateFunc(f *wlc.Func, rep *DeadBranchReport) error {
	facts, err := Consts(f)
	if err != nil {
		return err
	}
	g := f.Graph

	// Decide the surviving successor set of every block: a branch with
	// exactly one feasible side keeps only that side.
	type rewrite struct {
		term  wlc.Term
		succs []cfg.BlockID
	}
	plans := make([]rewrite, g.NumBlocks())
	folded := 0
	for _, blk := range g.Blocks() {
		t := f.Terms[blk.ID]
		plan := rewrite{term: t, succs: blk.Succs}
		if t.Kind == wlc.TermBranch && facts.Reachable(blk.ID) {
			feas := facts.EdgeFeasible[blk.ID]
			switch {
			case feas[0] && !feas[1]:
				plan = rewrite{term: wlc.Term{Kind: wlc.TermJump}, succs: blk.Succs[:1]}
				folded++
			case !feas[0] && feas[1]:
				plan = rewrite{term: wlc.Term{Kind: wlc.TermJump}, succs: blk.Succs[1:2]}
				folded++
			}
		}
		plans[blk.ID] = plan
	}
	if folded == 0 {
		return nil
	}

	// Blocks still reachable from the entry along surviving edges.
	alive := make([]bool, g.NumBlocks())
	stack := []cfg.BlockID{g.Entry}
	alive[g.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range plans[b].succs {
			if !alive[s] {
				alive[s] = true
				stack = append(stack, s)
			}
		}
	}
	if !alive[g.Exit] {
		// Pruning disconnected the exit (the feasible part of the
		// function never terminates); the graph would not validate.
		rep.SkippedFuncs = append(rep.SkippedFuncs, f.Name)
		return nil
	}

	// Rebuild the graph over the surviving blocks, preserving ID order.
	ng := cfg.New(g.Name)
	newID := make([]cfg.BlockID, g.NumBlocks())
	removed := 0
	for _, blk := range g.Blocks() {
		if !alive[blk.ID] {
			newID[blk.ID] = cfg.None
			removed++
			continue
		}
		nb := ng.NewBlock(blk.Name)
		nb.Weight = blk.Weight
		newID[blk.ID] = nb.ID
	}
	for _, blk := range g.Blocks() {
		if !alive[blk.ID] {
			continue
		}
		for _, s := range plans[blk.ID].succs {
			if err := ng.AddEdge(newID[blk.ID], newID[s]); err != nil {
				return fmt.Errorf("dataflow: dead-branch %s: %w", f.Name, err)
			}
		}
	}
	ng.SetEntry(newID[g.Entry])
	ng.SetExit(newID[g.Exit])
	if err := ng.Finish(); err != nil {
		// A surviving block no longer co-reaches the exit (its only
		// path out went through a pruned edge of an infinite loop);
		// keep the original function rather than ship a graph the rest
		// of the pipeline would reject.
		rep.SkippedFuncs = append(rep.SkippedFuncs, f.Name)
		return nil
	}

	code := make([][]wlc.Instr, ng.NumBlocks())
	terms := make([]wlc.Term, ng.NumBlocks())
	for _, blk := range g.Blocks() {
		if !alive[blk.ID] {
			continue
		}
		code[newID[blk.ID]] = f.Code[blk.ID]
		terms[newID[blk.ID]] = plans[blk.ID].term
	}
	f.Graph = ng
	f.Code = code
	f.Terms = terms
	rep.BranchesFolded += folded
	rep.BlocksRemoved += removed
	return nil
}
