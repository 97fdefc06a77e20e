package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/container"
)

// FuzzReadRequest hardens the negotiation parser: arbitrary bytes must
// never panic, and anything it accepts must survive a write/read round
// trip unchanged.
func FuzzReadRequest(f *testing.F) {
	traced := Request{
		Clip: "night", Quality: 0.10, Device: "ipaq5555", StartFrame: 7,
	}
	traced.Trace.Trace[0] = 0xab
	traced.Trace.Span[7] = 0x01
	traced.Trace.Sampled = true
	for _, req := range []Request{
		{Clip: "night", Quality: 0.10, Device: "ipaq5555"},
		{Clip: "n", Quality: 1},
		{Clip: "night", Quality: 0.10, Device: "ipaq5555", StartFrame: 7},
		{Clip: "day", Quality: 0.5, Device: "ipaq5555"},
		{Clip: "night", Quality: 0.10, Device: "ipaq5555", Adaptive: true},
		{Clip: "night", Quality: 0.05, Device: "ipaq5555", Adaptive: true, StartFrame: 12},
		traced,
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Retired magics and a flags-only tail: the parser must refuse or
	// round-trip them, never panic.
	f.Add([]byte("RQS1"))
	f.Add([]byte("RQS2\xff\x00\x01x\x00"))
	f.Add([]byte("RQS4\x02\x00\x01x\x00\x00\x00\x00\x00\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRequest(&out, req); err != nil {
			t.Fatalf("parsed request %+v does not re-encode: %v", req, err)
		}
		got, err := ReadRequest(&out)
		if err != nil {
			t.Fatalf("re-encoded request does not parse: %v", err)
		}
		if got != req {
			t.Fatalf("round trip changed the request: %+v vs %+v", got, req)
		}
	})
}

// FuzzReadResponseMagic hardens the response discriminator: no panic on
// arbitrary bytes, and the invariant that a nil-error return means the
// container magic was seen.
func FuzzReadResponseMagic(f *testing.F) {
	var okResp bytes.Buffer
	okResp.Write(container.Magic[:])
	f.Add(okResp.Bytes())
	var errResp bytes.Buffer
	WriteError(&errResp, "boom")
	f.Add(errResp.Bytes())
	var capResp bytes.Buffer
	WriteOverCapacity(&capResp)
	f.Add(capResp.Bytes())
	f.Add([]byte("ERR1\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		magic, remoteErr, err := ReadResponseMagic(bytes.NewReader(data))
		if err == nil && remoteErr == nil && magic != container.Magic {
			t.Fatalf("accepted magic %q", magic[:])
		}
		if remoteErr != nil && errors.Is(remoteErr, ErrOverCapacity) &&
			!bytes.Contains(data, []byte(overCapacityMsg)) {
			t.Fatalf("over-capacity verdict without the wire message in %q", data)
		}
	})
}

// FuzzReadQualitySwitch hardens the mid-stream control channel: no
// panic on arbitrary bytes, and anything accepted must round-trip.
func FuzzReadQualitySwitch(f *testing.F) {
	for rung := 0; rung < 5; rung++ {
		var buf bytes.Buffer
		if err := WriteQualitySwitch(&buf, rung); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("QSW1"))
	f.Add([]byte("QSW1\xff"))
	f.Add([]byte("XXXX\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rung, err := ReadQualitySwitch(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteQualitySwitch(&out, rung); err != nil {
			t.Fatalf("parsed rung %d does not re-encode: %v", rung, err)
		}
		got, err := ReadQualitySwitch(&out)
		if err != nil || got != rung {
			t.Fatalf("round trip changed the rung: %d vs %d (%v)", got, rung, err)
		}
	})
}

// TestRequestV4Framing pins the one request framing: an RQS4 request
// always carries the start frame and flags byte, and the adaptive flag,
// start frame and trace context survive a round trip.
func TestRequestV4Framing(t *testing.T) {
	var buf bytes.Buffer
	want := Request{Clip: "night", Quality: 0.10, Device: "ipaq5555",
		Adaptive: true, StartFrame: 3}
	want.Trace.Trace[15] = 0x42
	want.Trace.Span[0] = 0x07
	if err := WriteRequest(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("RQS4")) {
		t.Fatalf("request framed as %q", buf.Bytes()[:4])
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clip != want.Clip || got.Device != want.Device || !got.Adaptive ||
		got.StartFrame != 3 || got.Trace != want.Trace {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// A fixed session from frame zero without a trace still sends the
	// start frame and an empty flags byte.
	var pb bytes.Buffer
	if err := WriteRequest(&pb, Request{Clip: "night", Quality: 0.2}); err != nil {
		t.Fatal(err)
	}
	if wire := rqs4(51, 0, "night", "", 0, 0); !bytes.Equal(pb.Bytes(), wire) {
		t.Errorf("plain request framed as %q, want %q", pb.Bytes(), wire)
	}
	if got, err := ReadRequest(&pb); err != nil || got.Adaptive || got.Trace.Valid() {
		t.Errorf("plain round trip: %+v, %v", got, err)
	}
}

// TestQualitySwitchFraming pins the control-message wire format and its
// failure modes.
func TestQualitySwitchFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteQualitySwitch(&buf, 4); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "QSW1\x04" {
		t.Fatalf("wire bytes = %q, want QSW1\\x04", got)
	}
	if _, err := ReadQualitySwitch(bytes.NewReader([]byte("QSW9\x00"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadQualitySwitch(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("clean EOF reported as %v", err)
	}
	if _, err := ReadQualitySwitch(bytes.NewReader([]byte("QS"))); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated message reported as %v, want a non-EOF error", err)
	}
	if err := WriteQualitySwitch(&bytes.Buffer{}, 300); err == nil {
		t.Error("out-of-range rung accepted")
	}
	if err := WriteQualitySwitch(&bytes.Buffer{}, -1); err == nil {
		t.Error("negative rung accepted")
	}
}
