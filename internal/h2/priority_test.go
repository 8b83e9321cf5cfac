package h2

import "testing"

func newTestStream(id uint32) *Stream {
	c := newCore(true, DefaultSettings())
	st := &Stream{ID: id, core: c, State: StateOpen, pauseAt: -1}
	return st
}

func sendableAll(*Stream) bool { return true }

func TestPriorityTreeBasics(t *testing.T) {
	tr := NewPriorityTree()
	a, b := newTestStream(1), newTestStream(3)
	tr.Bind(a)
	tr.Bind(b)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	got := tr.Next(sendableAll)
	if got == nil {
		t.Fatal("Next returned nil with sendable streams")
	}
}

func TestExclusiveInsertionAdoptsChildren(t *testing.T) {
	tr := NewPriorityTree()
	for _, id := range []uint32{1, 3, 5} {
		tr.Bind(newTestStream(id))
	}
	// Stream 7 becomes exclusive child of root: 1,3,5 become its children.
	st7 := newTestStream(7)
	tr.Bind(st7)
	tr.Update(7, PriorityParam{ParentID: 0, Exclusive: true, Weight: 200})
	// Only 7 is sendable at the top; the others sit below it.
	only7 := func(s *Stream) bool { return s.ID == 7 }
	if got := tr.Next(only7); got == nil || got.ID != 7 {
		t.Fatalf("Next = %v, want stream 7", got)
	}
	// With 7 not sendable, its children are reachable.
	not7 := func(s *Stream) bool { return s.ID != 7 }
	if got := tr.Next(not7); got == nil || got.ID == 7 {
		t.Fatalf("Next = %v, want a child of 7", got)
	}
}

func TestDependencyChainStrictOrder(t *testing.T) {
	// Chromium-style: 3 depends on 1, 5 depends on 3. With all sendable,
	// the shallowest (1) always wins — strict ordering.
	tr := NewPriorityTree()
	for _, id := range []uint32{1, 3, 5} {
		tr.Bind(newTestStream(id))
	}
	tr.Update(3, PriorityParam{ParentID: 1, Weight: 219})
	tr.Update(5, PriorityParam{ParentID: 3, Weight: 219})
	if got := tr.Next(sendableAll); got.ID != 1 {
		t.Fatalf("Next = %d, want 1", got.ID)
	}
	no1 := func(s *Stream) bool { return s.ID != 1 }
	if got := tr.Next(no1); got.ID != 3 {
		t.Fatalf("Next = %d, want 3", got.ID)
	}
	no13 := func(s *Stream) bool { return s.ID == 5 }
	if got := tr.Next(no13); got.ID != 5 {
		t.Fatalf("Next = %d, want 5", got.ID)
	}
}

func TestWeightedFairnessAmongSiblings(t *testing.T) {
	tr := NewPriorityTree()
	heavy, light := newTestStream(1), newTestStream(3)
	tr.Bind(heavy)
	tr.Bind(light)
	tr.Update(1, PriorityParam{ParentID: 0, Weight: 255}) // effective 256
	tr.Update(3, PriorityParam{ParentID: 0, Weight: 63})  // effective 64
	counts := map[uint32]int{}
	for i := 0; i < 1000; i++ {
		st := tr.Next(sendableAll)
		counts[st.ID]++
		tr.Charge(st.ID, 1000)
	}
	ratio := float64(counts[1]) / float64(counts[3])
	if ratio < 3.2 || ratio > 4.8 {
		t.Fatalf("weight 256:64 served ratio = %.2f (counts %v), want ~4", ratio, counts)
	}
}

func TestRemoveReparentsChildren(t *testing.T) {
	tr := NewPriorityTree()
	for _, id := range []uint32{1, 3} {
		tr.Bind(newTestStream(id))
	}
	tr.Update(3, PriorityParam{ParentID: 1, Weight: 15})
	tr.Remove(1)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	// 3 must now be reachable directly under the root.
	if got := tr.Next(sendableAll); got == nil || got.ID != 3 {
		t.Fatalf("Next = %v, want 3", got)
	}
}

func TestReprioritizeUnderDescendant(t *testing.T) {
	// RFC 7540 5.3.3: moving 1 under its descendant 3 must first move 3
	// up to 1's old parent.
	tr := NewPriorityTree()
	for _, id := range []uint32{1, 3} {
		tr.Bind(newTestStream(id))
	}
	tr.Update(3, PriorityParam{ParentID: 1, Weight: 15})
	tr.Update(1, PriorityParam{ParentID: 3, Weight: 15})
	// Now 3 is at the root level and 1 under it: with 3 unsendable, 1 is
	// still reachable (no cycle, no orphan).
	no3 := func(s *Stream) bool { return s.ID == 1 }
	if got := tr.Next(no3); got == nil || got.ID != 1 {
		t.Fatalf("Next = %v, want 1 (tree must stay acyclic)", got)
	}
}

func TestIdlePlaceholderCreation(t *testing.T) {
	tr := NewPriorityTree()
	st := newTestStream(5)
	tr.Bind(st)
	// Depend on an unseen stream: a placeholder is created.
	tr.Update(5, PriorityParam{ParentID: 99, Weight: 15})
	if got := tr.Next(sendableAll); got == nil || got.ID != 5 {
		t.Fatalf("Next = %v, want 5 via placeholder parent", got)
	}
}

func TestSelfDependencyIgnored(t *testing.T) {
	tr := NewPriorityTree()
	st := newTestStream(1)
	tr.Bind(st)
	tr.Update(1, PriorityParam{ParentID: 1, Weight: 15})
	if got := tr.Next(sendableAll); got == nil || got.ID != 1 {
		t.Fatalf("self-dependency corrupted tree: Next = %v", got)
	}
}

func TestChargePropagatesToAncestors(t *testing.T) {
	tr := NewPriorityTree()
	for _, id := range []uint32{1, 3, 5} {
		tr.Bind(newTestStream(id))
	}
	// 3 and 5 are children of 1.
	tr.Update(3, PriorityParam{ParentID: 1, Weight: 15})
	tr.Update(5, PriorityParam{ParentID: 1, Weight: 15})
	tr.Charge(3, 500)
	if tr.lookup(3).served != 500 || tr.lookup(1).served != 500 {
		t.Fatalf("served: node3=%d node1=%d, want 500/500", tr.lookup(3).served, tr.lookup(1).served)
	}
	if tr.lookup(5).served != 0 {
		t.Fatalf("sibling charged: %d", tr.lookup(5).served)
	}
}
