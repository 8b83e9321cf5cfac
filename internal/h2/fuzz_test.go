package h2

import "testing"

// FuzzFrameReader feeds arbitrary transport bytes through the
// incremental frame decoder. The reader faces peer-controlled input, so
// the invariant is the surfaced-error contract: malformed wire bytes
// produce a ConnError from Next, never a panic, and every successful
// Next makes progress (consumes at least a frame header) so a feed of N
// bytes can never decode more than N/frameHeaderLen+1 frames.
//
// The corpus seeds are real encodings produced by appendFrame — every
// frame type the codec emits, alone and concatenated — so mutations
// start from wire-valid shapes and explore the boundaries (truncated
// headers, oversized lengths, bogus types, flag/padding combinations).
func FuzzFrameReader(f *testing.F) {
	frames := []Frame{
		&dataFrame{StreamID: 1, Data: viewOf([]byte("hello fuzz")), EndStream: true},
		&headersFrame{StreamID: 5, Block: []byte{0x82, 0x86, 0x84}, EndHeaders: true,
			HasPriority: true, Priority: PriorityParam{ParentID: 3, Exclusive: true, Weight: 219}},
		&priorityFrame{StreamID: 9, Priority: PriorityParam{ParentID: 7, Weight: 15}},
		&rstStreamFrame{StreamID: 2, Code: ErrCodeRefusedStream},
		&settingsFrame{Params: []setting{{SettingEnablePush, 0}, {SettingInitialWindowSize, 1 << 20}}},
		&settingsFrame{Ack: true},
		&pushPromiseFrame{StreamID: 1, PromisedID: 2, Block: []byte{0x82, 0x84}, EndHeaders: true},
		&pingFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&goAwayFrame{LastStreamID: 9, Code: ErrCodeProtocol, Debug: []byte("bye")},
		&windowUpdateFrame{StreamID: 3, Increment: 65535},
		&continuationFrame{StreamID: 5, Block: []byte{0x01, 0x02}, EndHeaders: true},
	}
	var all []byte
	for _, fr := range frames {
		f.Add(appendFrame(nil, fr))
		all = appendFrame(all, fr)
	}
	f.Add(all)
	f.Add(all[:len(all)-3]) // truncated tail frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var r FrameReader
		// Feed in two chunks split at a data-derived point so payloads
		// regularly span chunks: scratch reassembly for control frames,
		// multi-part views for DATA.
		split := 0
		if len(data) > 1 {
			split = int(data[0]) % len(data)
		}
		r.Feed(data[:split])
		r.Feed(data[split:])
		maxFrames := len(data)/frameHeaderLen + 1
		for i := 0; ; i++ {
			fr, err := r.Next()
			if err != nil {
				return // surfaced error is the contract; panics are the bug
			}
			if fr == nil {
				return
			}
			if df, ok := fr.(*dataFrame); ok {
				n := 0
				for _, part := range df.Data.parts {
					n += len(part)
				}
				if n != df.Data.Len() {
					t.Fatalf("DATA view of %d bytes has parts of %d", df.Data.Len(), n)
				}
			}
			if i > maxFrames {
				t.Fatalf("decoded more than %d frames from %d bytes: no progress", maxFrames, len(data))
			}
		}
	})
}
