package wire

import "testing"

// The receive body of one windowed contiguous-write request —
// client.DefaultWindowBytes of payload behind WriteReq's fixed fields —
// must come from a class that parks 16 buffers, not from the > 1 MiB
// classes that park 4 (where the old one-request-per-daemon body of
// 4 MiB + 8 B landed, rounded up to 8 MiB).
func TestWindowedWriteBodyClass(t *testing.T) {
	const window = 512 << 10 // client.DefaultWindowBytes
	for _, c := range []struct {
		name   string
		body   int
		class  int
		parked int
	}{
		{"one window plus fixed fields", window + WriteReqFixedSize, 1 << 20, 16},
		{"one bare window", window, 512 << 10, 16},
		{"a daemon's whole 4 MiB share plus fixed fields", 4<<20 + WriteReqFixedSize, 8 << 20, 4},
	} {
		shift := shiftFor(c.body)
		if 1<<shift != c.class {
			t.Errorf("%s: class %d, want %d", c.name, 1<<shift, c.class)
		}
		if got := cap(bufClasses[shift]); got != c.parked {
			t.Errorf("%s: class parks %d, want %d", c.name, got, c.parked)
		}
		b := GetBuf(c.body)
		if cap(b) != c.class {
			t.Errorf("%s: GetBuf cap %d, want %d", c.name, cap(b), c.class)
		}
		PutBuf(b)
	}
}
