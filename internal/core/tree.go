package core

import (
	"math"
	"sync"
)

// This file implements the global optimization exactly as the paper draws
// it (Figure 3 of both papers): the per-core energy curves are reduced
// *pairwise* in a binary tree — E12(w1+w2) = min over splits of
// E1(w1)+E2(w2) — until a single curve remains, and the argmin choices are
// unwound from the root. The tree shape is what makes the optimization
// scalable: reductions at the same depth are independent and run
// concurrently here, as they would in parallel hardware or on multiple
// cores of the managed system itself.
//
// AllocateWays (optimize.go) folds the same recurrence left-to-right.
// Both run every pairwise reduction through one kernel, minPlus, and
// differ only in which rows they pair: they find allocations of identical
// total energy (TestTreeMatchesFold), differing at most in tie-breaking.

// treeNode is one vertex of the reduction tree.
type treeNode struct {
	curve []float64 // minimum EPI for each total way count
	// leaf
	core int
	// internal
	left, right *treeNode
	choice      []int // ways granted to the left subtree per total
}

// reducePair combines two nodes. Passing b's row first makes minPlus's
// choice the ways granted to the left subtree.
func reducePair(a, b *treeNode, totalWays int) *treeNode {
	n := &treeNode{
		curve:  make([]float64, totalWays+1),
		choice: make([]int, totalWays+1),
		left:   a,
		right:  b,
	}
	minPlus(n.curve, n.choice, b.curve, a.curve)
	return n
}

// assign unwinds the argmin choices from the root.
func (n *treeNode) assign(W int, out []int) bool {
	if n.left == nil {
		out[n.core] = W
		return true
	}
	wl := n.choice[W]
	if wl < 0 {
		return false
	}
	return n.left.assign(wl, out) && n.right.assign(W-wl, out)
}

// AllocateWaysTree solves the same problem as AllocateWays with the
// paper's pairwise reduction tree; same-depth reductions run concurrently.
func AllocateWaysTree(curves []*Curve, totalWays int) ([]int, bool) {
	n := len(curves)
	if n == 0 {
		return nil, false
	}
	nodes := make([]*treeNode, n)
	for i, c := range curves {
		leaf := &treeNode{core: i, curve: make([]float64, totalWays+1)}
		c.epiRow(leaf.curve)
		nodes[i] = leaf
	}
	for len(nodes) > 1 {
		next := make([]*treeNode, (len(nodes)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(nodes); i += 2 {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				next[i/2] = reducePair(nodes[i], nodes[i+1], totalWays)
			}(i)
		}
		if len(nodes)%2 == 1 {
			next[len(next)-1] = nodes[len(nodes)-1]
		}
		wg.Wait()
		nodes = next
	}
	root := nodes[0]
	if math.IsInf(root.curve[totalWays], 1) {
		return nil, false
	}
	alloc := make([]int, n)
	if !root.assign(totalWays, alloc) {
		return nil, false
	}
	return alloc, true
}
