package h2

import "testing"

// TestFrameReaderAllocBudget pins the zero-copy receive path: once the
// reader's chunk and parts lists are warm, parsing a max-size DATA frame
// fed in MSS-sized chunks must not allocate (the payload is returned as
// a view of the fed chunks, through the reused parts list and
// DataFrame). A regression back to copy-per-Feed or alloc-per-frame
// fails this immediately.
func TestFrameReaderAllocBudget(t *testing.T) {
	payload := make([]byte, DefaultMaxFrameSize)
	wire := AppendFrame(nil, &DataFrame{StreamID: 1, Data: viewOf(payload)})
	var r FrameReader
	parse := func() {
		frames := 0
		for off := 0; off < len(wire); {
			end := off + 1460
			if end > len(wire) {
				end = len(wire)
			}
			r.Feed(wire[off:end])
			off = end
			for {
				f, err := r.Next()
				if err != nil {
					t.Fatal(err)
				}
				if f == nil {
					break
				}
				frames++
			}
		}
		if frames != 1 {
			t.Fatalf("parsed %d frames, want 1", frames)
		}
	}
	// testing.AllocsPerRun runs parse once as warm-up, which grows the
	// chunk and parts lists to steady state.
	if avg := testing.AllocsPerRun(50, parse); avg > 0.5 {
		t.Errorf("FrameReader parse allocates %.2f per 16KB DATA frame, budget 0.5", avg)
	}
}
