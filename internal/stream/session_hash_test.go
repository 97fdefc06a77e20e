package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
)

// rqs4 frames a negotiation request byte for byte, independent of
// WriteRequest: magic, quality byte, mode byte (reserved, 0 in every
// valid request), clip, device, 4-byte start frame, flags byte (bit 0
// trace, bit 1 adaptive).
func rqs4(quality, mode uint8, clip, device string, start uint32, flags uint8) []byte {
	b := []byte("RQS4")
	b = append(b, quality, mode, uint8(len(clip)))
	b = append(b, clip...)
	b = append(b, uint8(len(device)))
	b = append(b, device...)
	b = binary.BigEndian.AppendUint32(b, start)
	return append(b, flags)
}

// sessionBytes sends req over a real socket and returns everything the
// node writes back until it closes the connection.
func sessionBytes(t *testing.T, addr string, req []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSessionBytesPinned hashes whole server→client responses of real
// socket sessions, through the server and through a proxy over it. The
// request, the framing and every layer below it (compensation,
// encoding, side channels, container, zero-copy send) are fixed points:
// any refactor of the serving path must reproduce these bytes exactly.
func TestSessionBytesPinned(t *testing.T) {
	_, srvAddr := startServer(t)
	p := NewProxy(srvAddr)
	p.SetLogf(quiet)
	pAddr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	proxyAddr := pAddr.String()

	const q10 = 26 // 0.10 quality budget on the wire
	// The night clip runs at 8 fps with the default one-second GOP, so
	// frame 13 sits mid-GOP and the stream rewinds to the I-frame at 8.
	for _, tc := range []struct {
		name, addr string
		req        []byte
		want       string
	}{
		{"server/fixed", srvAddr, rqs4(q10, 0, "night", "ipaq5555", 0, 0),
			"4376170352a7e0135aad43f9e0ac883ea3e4683731d92adf29ad697ff5ee7788"},
		{"proxy/fixed", proxyAddr, rqs4(q10, 0, "night", "ipaq5555", 0, 0),
			"1fa66d5c4010bebe2a5c57cc1e267f6e0ebb14b45eba27275777c05d561f3cf8"},
		{"server/adaptive", srvAddr, rqs4(q10, 0, "night", "ipaq5555", 0, reqFlagAdaptive),
			"a14dbae8928bc7d1fae66f5848d4a2a555837621829320450a2eefd9ed489f50"},
		{"proxy/adaptive", proxyAddr, rqs4(q10, 0, "night", "ipaq5555", 0, reqFlagAdaptive),
			"3083f45d09de3f494c703f2c3fb5139eda6e9c73448e85799db1109c7b76eb35"},
		{"server/resume-mid-gop", srvAddr, rqs4(q10, 0, "night", "ipaq5555", 13, 0),
			"bcdb573e64313eae6e68b253ab6a2b4a5da74cbac1b783db55ab09d02cc14560"},
		{"proxy/resume-mid-gop", proxyAddr, rqs4(q10, 0, "night", "ipaq5555", 13, 0),
			"b4bbbdf28fe8fa16e10e025a304d66e8305eee24fec881f83bd6492a1519d138"},
	} {
		resp := sessionBytes(t, tc.addr, tc.req)
		sum := sha256.Sum256(resp)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: %d response bytes hash to %s, want %s", tc.name, len(resp), got, tc.want)
		}
	}
	// The proxy's source: the server's "clip" fetch payload is the
	// untouched container stream, byte for byte.
	payload := fetchClipPayload(t, srvAddr, "night")
	sum := sha256.Sum256(payload)
	if got, want := hex.EncodeToString(sum[:]), "520d1c24a27614810bec6f9f1743059bff8b6e6b716e45e057e88adf83025ee3"; got != want {
		t.Errorf("server/clip: %d payload bytes hash to %s, want %s", len(payload), got, want)
	}
}

// fetchClipPayload fetches clip's "clip" artifact from the node at addr
// over a real socket, the way a proxy pulls its source.
func fetchClipPayload(t *testing.T, addr, clip string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := cluster.WriteFetchRequest(conn, cluster.FetchRequest{Kind: "clip", Digest: clip, Quality: -1}); err != nil {
		t.Fatal(err)
	}
	payload, err := cluster.ReadFetchResponse(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}
