package h2

// PriorityTree implements the RFC 7540 Section 5.3 stream dependency tree
// together with the weighted scheduling walk the server uses to pick the
// next stream to send DATA for.
//
// Scheduling semantics (matching h2o's default lexicographic scheduler):
// a node's own stream is served while it can make progress; its children
// only receive bandwidth when the node itself cannot send. Siblings whose
// subtrees can send share bandwidth in proportion to their weights via a
// served-bytes/weight virtual-time rule. This is exactly why, by default,
// a pushed stream (a child of the stream that triggered the push) is
// starved until its parent response has finished — Fig. 5(a) of the paper.
// The node table is keyed by the same per-connection dense stream index
// as Core's stream tables ((id-1)/2 for odd IDs, id/2-1 for even), so
// the per-frame node lookup is a slice index instead of a map probe, and
// removed nodes are recycled through a free list. A node's children are
// an intrusive doubly linked list, so attaching and detaching are O(1)
// and a recycled node has no slice to re-grow; sibling order is never
// observable, because next breaks ties by stream ID.
//
//repolint:pooled
type PriorityTree struct {
	oddNodes  []*prioNode
	evenNodes []*prioNode
	count     int
	free      []*prioNode
	root      *prioNode
}

type prioNode struct {
	id         uint32
	parent     *prioNode
	child      *prioNode // first child; siblings chain through next/prev
	next, prev *prioNode
	weight     uint8 // wire value; effective weight is weight+1
	served     int64 // bytes charged at this level for sibling fairness
	st         *Stream
}

// DefaultWeight is the wire default (effective weight 16).
const DefaultWeight = 15

// NewPriorityTree returns a tree containing only the root (stream 0).
func NewPriorityTree() *PriorityTree {
	return &PriorityTree{root: &prioNode{id: 0, weight: DefaultWeight}}
}

// Reset empties the tree back to its post-NewPriorityTree state, keeping
// the node storage and free list for the next connection on a pooled
// core.
func (t *PriorityTree) Reset() {
	clearNodes := func(tab []*prioNode) {
		for i, n := range tab {
			if n != nil {
				t.recycle(n)
				tab[i] = nil
			}
		}
	}
	clearNodes(t.oddNodes)
	clearNodes(t.evenNodes)
	t.oddNodes, t.evenNodes = t.oddNodes[:0], t.evenNodes[:0]
	t.count = 0
	t.root.child = nil
	t.root.served = 0
}

func (t *PriorityTree) recycle(n *prioNode) {
	*n = prioNode{}
	t.free = append(t.free, n)
}

// lookup returns the node for id without creating it; nil when unknown.
func (t *PriorityTree) lookup(id uint32) *prioNode {
	if id == 0 {
		return t.root
	}
	if id%2 == 1 {
		if i := int(id-1) / 2; i < len(t.oddNodes) {
			return t.oddNodes[i]
		}
		return nil
	}
	if i := int(id)/2 - 1; i < len(t.evenNodes) {
		return t.evenNodes[i]
	}
	return nil
}

func (t *PriorityTree) store(id uint32, n *prioNode) {
	tab := &t.evenNodes
	i := int(id)/2 - 1
	if id%2 == 1 {
		tab = &t.oddNodes
		i = int(id-1) / 2
	}
	for len(*tab) <= i {
		*tab = append(*tab, nil)
	}
	(*tab)[i] = n
}

func (t *PriorityTree) node(id uint32) *prioNode {
	if n := t.lookup(id); n != nil {
		return n
	}
	// Priority frames may reference streams we have not seen yet (idle
	// placeholders); create them under the root, per RFC 7540 5.3.4.
	var n *prioNode
	if k := len(t.free); k > 0 {
		n = t.free[k-1]
		t.free[k-1] = nil
		t.free = t.free[:k-1]
	} else {
		n = &prioNode{}
	}
	n.id, n.weight = id, DefaultWeight
	t.attach(n, t.root)
	t.store(id, n)
	t.count++
	return n
}

// Bind associates a stream object with its tree node, creating the node
// with default priority when necessary.
func (t *PriorityTree) Bind(st *Stream) {
	t.node(st.ID).st = st
}

// Update applies a dependency change (from HEADERS priority or a PRIORITY
// frame) with full RFC 7540 Section 5.3.3 semantics, including moving the
// new parent when it is a descendant of the reprioritized stream, and the
// exclusive flag.
func (t *PriorityTree) Update(id uint32, p PriorityParam) {
	if p.ParentID == id {
		// Self-dependency is a protocol error handled by the caller;
		// ignore defensively here.
		return
	}
	n := t.node(id)
	parent := t.node(p.ParentID)
	// If the new parent is a descendant of n, first move it up to n's
	// current parent (retaining its weight).
	if t.isDescendant(parent, n) {
		t.detach(parent)
		t.attach(parent, n.parent)
	}
	t.detach(n)
	if p.Exclusive {
		// n adopts all of parent's current children.
		t.adopt(n, parent)
	}
	n.weight = p.Weight
	t.attach(n, parent)
}

func (t *PriorityTree) isDescendant(n, ancestor *prioNode) bool {
	for p := n.parent; p != nil; p = p.parent {
		if p == ancestor {
			return true
		}
	}
	return false
}

func (t *PriorityTree) detach(n *prioNode) {
	p := n.parent
	if p == nil {
		return
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.child = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.parent, n.next, n.prev = nil, nil, nil
}

//repolint:hotpath
func (t *PriorityTree) attach(n, parent *prioNode) {
	n.parent, n.next, n.prev = parent, parent.child, nil
	if parent.child != nil {
		parent.child.prev = n
	}
	parent.child = n
}

// adopt moves every child of from under to.
func (t *PriorityTree) adopt(to, from *prioNode) {
	for c := from.child; c != nil; {
		next := c.next
		t.attach(c, to)
		c = next
	}
	from.child = nil
}

// Remove closes a stream's node; its children are reparented to the
// grandparent (RFC 7540 5.3.4, weight redistribution simplified). The
// node struct is recycled for the connection's next stream.
func (t *PriorityTree) Remove(id uint32) {
	n := t.lookup(id)
	if n == nil || n == t.root {
		return
	}
	parent := n.parent
	t.detach(n)
	t.adopt(parent, n)
	t.store(id, nil)
	t.count--
	t.recycle(n)
}

// Next walks the tree and returns the stream to serve next: the shallowest
// sendable stream, with weighted fairness among sibling subtrees. It
// returns nil when nothing is sendable.
func (t *PriorityTree) Next(sendable func(*Stream) bool) *Stream {
	return t.next(t.root, sendable)
}

func (t *PriorityTree) next(n *prioNode, sendable func(*Stream) bool) *Stream {
	if n.st != nil && sendable(n.st) {
		return n.st
	}
	var best *prioNode
	var bestKey float64
	for c := n.child; c != nil; c = c.next {
		if !t.subtreeSendable(c, sendable) {
			continue
		}
		key := float64(c.served+1) / float64(int(c.weight)+1)
		if best == nil || key < bestKey || (key == bestKey && c.id < best.id) {
			best, bestKey = c, key
		}
	}
	if best == nil {
		return nil
	}
	return t.next(best, sendable)
}

func (t *PriorityTree) subtreeSendable(n *prioNode, sendable func(*Stream) bool) bool {
	if n.st != nil && sendable(n.st) {
		return true
	}
	for c := n.child; c != nil; c = c.next {
		if t.subtreeSendable(c, sendable) {
			return true
		}
	}
	return false
}

// Charge accounts n bytes served on the stream, at every ancestor level,
// so sibling fairness holds throughout the tree.
func (t *PriorityTree) Charge(id uint32, n int) {
	nd := t.lookup(id)
	if nd == nil {
		return
	}
	for ; nd != nil && nd != t.root; nd = nd.parent {
		nd.served += int64(n)
	}
}

// Len reports the number of known streams (excluding the root).
func (t *PriorityTree) Len() int { return t.count }
