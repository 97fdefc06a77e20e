package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs"
)

// The fetch-artifact RPC rides the same listener as client sessions:
// a node reads the 4-byte magic and dispatches AFR2 frames here, RQS4
// frames to the session handler. The framing is versioned (the magic
// carries the version digit) and every variable-length field is
// length-prefixed with a hard bound, so a hostile or desynchronised
// peer can make a fetch fail but never make the server allocate
// unbounded memory or misparse. The response payload carries a
// CRC32-Castagnoli trailer: a requester that sees a mismatch discards
// the bytes and recomputes locally — wrong bytes are never served.

// FetchMagic opens a fetch-artifact request frame (version 2: version
// 1 plus a flags byte and an optional trace context).
var FetchMagic = [4]byte{'A', 'F', 'R', '2'}

// fetchFlagTrace marks a request carrying the requester's span context;
// the other flag bits are reserved and must be zero.
const fetchFlagTrace = 1 << 0

// fetchOKMagic and fetchErrMagic open the two response frames.
var (
	fetchOKMagic  = [4]byte{'A', 'F', 'O', '1'}
	fetchErrMagic = [4]byte{'A', 'F', 'E', '1'}
)

// Field bounds. Digests are hex fingerprints plus an encoder-config
// suffix, kinds are short identifiers; anything larger is hostile.
const (
	maxKindLen   = 64
	maxDigestLen = 512
	maxSuffixLen = 128

	// DefaultMaxArtifactBytes bounds an accepted response payload: one
	// encoded variant of a clip, with generous headroom.
	DefaultMaxArtifactBytes = 1 << 30
)

// crcTable is the Castagnoli polynomial table shared by writer and
// reader (hardware-accelerated on the platforms that matter).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Framing and outcome sentinels.
var (
	// ErrFraming reports a malformed fetch frame (bad magic, hostile
	// length, truncation). The connection is poisoned: the caller must
	// drop it, not retry on it.
	ErrFraming = errors.New("cluster: fetch framing error")
	// ErrChecksum reports a response payload whose CRC trailer did not
	// match. The requester must discard the payload and fall back to
	// local compute.
	ErrChecksum = errors.New("cluster: artifact checksum mismatch")
	// ErrNotFound is the owner's clean miss: it does not have and
	// cannot produce the artifact (unknown clip, encoder mismatch).
	ErrNotFound = errors.New("cluster: artifact not found on owner")
	// ErrPeerUnavailable reports that the peer could not be used at all
	// (breaker open, dial failure, draining).
	ErrPeerUnavailable = errors.New("cluster: peer unavailable")
)

// Remote error codes carried by an AFE1 frame.
const (
	// CodeNotFound: the owner answered cleanly but does not have and
	// cannot produce the artifact (unknown digest, encoder mismatch).
	CodeNotFound uint8 = 1
	// CodeUnavailable: the owner could not resolve right now (draining,
	// upstream down); the requester computes locally.
	CodeUnavailable uint8 = 2
)

// FetchRequest names one artifact. Kind/Digest/Quality/Device mirror
// the anncache key space; Suffix is the disk tier's digest suffix
// (encoder-config signature for variants, empty otherwise), sent
// separately so the owner can verify its own encoder settings match
// rather than serving bits encoded under different parameters. Clip is
// the requester's clip-name hint: content digests are one-way, so the
// hint is how an owner that has not yet computed anything maps the
// digest back to a catalog entry (it always verifies the digest before
// trusting the name). Kind "clip" asks for a stored clip itself, with
// the clip name in Digest. Trace is the requester's span context (zero
// when absent): the serving node parents its work under it, so a fetch
// stays inside the trace of the session that caused it.
type FetchRequest struct {
	Kind    string
	Digest  string
	Suffix  string
	Quality int
	Device  string
	Clip    string
	Trace   obs.SpanContext
}

// WriteFetchRequest frames req onto w, magic included.
func WriteFetchRequest(w io.Writer, req FetchRequest) error {
	buf, err := encodeFetchRequest(req)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// encodeFetchRequest frames req, checking every bound before a byte
// reaches the wire.
func encodeFetchRequest(req FetchRequest) ([]byte, error) {
	if len(req.Kind) == 0 || len(req.Kind) > maxKindLen {
		return nil, fmt.Errorf("%w: kind length %d", ErrFraming, len(req.Kind))
	}
	if len(req.Digest) == 0 || len(req.Digest) > maxDigestLen {
		return nil, fmt.Errorf("%w: digest length %d", ErrFraming, len(req.Digest))
	}
	if len(req.Suffix) > maxSuffixLen {
		return nil, fmt.Errorf("%w: suffix length %d", ErrFraming, len(req.Suffix))
	}
	if len(req.Device) > 255 || len(req.Clip) > 255 {
		return nil, fmt.Errorf("%w: name too long", ErrFraming)
	}
	if req.Quality < -1 || req.Quality > 0xFFFE {
		return nil, fmt.Errorf("%w: quality %d not encodable", ErrFraming, req.Quality)
	}
	buf := append([]byte{}, FetchMagic[:]...)
	buf = append(buf, uint8(len(req.Kind)))
	buf = append(buf, req.Kind...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Digest)))
	buf = append(buf, req.Digest...)
	buf = append(buf, uint8(len(req.Suffix)))
	buf = append(buf, req.Suffix...)
	// Quality is shifted by one so the conventional -1 ("whole clip")
	// rides an unsigned field.
	buf = binary.BigEndian.AppendUint16(buf, uint16(req.Quality+1))
	buf = append(buf, uint8(len(req.Device)))
	buf = append(buf, req.Device...)
	buf = append(buf, uint8(len(req.Clip)))
	buf = append(buf, req.Clip...)
	if !req.Trace.Valid() {
		return append(buf, 0), nil
	}
	buf = append(buf, fetchFlagTrace)
	return obs.AppendTraceContext(buf, req.Trace), nil
}

// ReadFetchRequest parses a whole request frame, magic included.
func ReadFetchRequest(r io.Reader) (FetchRequest, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return FetchRequest{}, fmt.Errorf("%w: short magic: %v", ErrFraming, err)
	}
	if magic != FetchMagic {
		return FetchRequest{}, fmt.Errorf("%w: bad magic %q", ErrFraming, magic[:])
	}
	return ReadFetchRequestBody(r)
}

// ReadFetchRequestBody parses a request whose magic has already been
// consumed (the dispatch path in the stream listener).
func ReadFetchRequestBody(r io.Reader) (FetchRequest, error) {
	readStr := func(n int, what string) (string, error) {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", fmt.Errorf("%w: short %s: %v", ErrFraming, what, err)
		}
		return string(b), nil
	}
	var req FetchRequest
	var b1 [1]byte
	var b2 [2]byte
	if _, err := io.ReadFull(r, b1[:]); err != nil {
		return req, fmt.Errorf("%w: short kind length: %v", ErrFraming, err)
	}
	if b1[0] == 0 || int(b1[0]) > maxKindLen {
		return req, fmt.Errorf("%w: kind length %d", ErrFraming, b1[0])
	}
	var err error
	if req.Kind, err = readStr(int(b1[0]), "kind"); err != nil {
		return req, err
	}
	if _, err := io.ReadFull(r, b2[:]); err != nil {
		return req, fmt.Errorf("%w: short digest length: %v", ErrFraming, err)
	}
	if n := binary.BigEndian.Uint16(b2[:]); n == 0 || int(n) > maxDigestLen {
		return req, fmt.Errorf("%w: digest length %d", ErrFraming, n)
	} else if req.Digest, err = readStr(int(n), "digest"); err != nil {
		return req, err
	}
	if _, err := io.ReadFull(r, b1[:]); err != nil {
		return req, fmt.Errorf("%w: short suffix length: %v", ErrFraming, err)
	}
	if int(b1[0]) > maxSuffixLen {
		return req, fmt.Errorf("%w: suffix length %d", ErrFraming, b1[0])
	}
	if req.Suffix, err = readStr(int(b1[0]), "suffix"); err != nil {
		return req, err
	}
	if _, err := io.ReadFull(r, b2[:]); err != nil {
		return req, fmt.Errorf("%w: short quality: %v", ErrFraming, err)
	}
	req.Quality = int(binary.BigEndian.Uint16(b2[:])) - 1
	if _, err := io.ReadFull(r, b1[:]); err != nil {
		return req, fmt.Errorf("%w: short device length: %v", ErrFraming, err)
	}
	if req.Device, err = readStr(int(b1[0]), "device"); err != nil {
		return req, err
	}
	if _, err := io.ReadFull(r, b1[:]); err != nil {
		return req, fmt.Errorf("%w: short clip length: %v", ErrFraming, err)
	}
	if req.Clip, err = readStr(int(b1[0]), "clip"); err != nil {
		return req, err
	}
	if _, err := io.ReadFull(r, b1[:]); err != nil {
		return req, fmt.Errorf("%w: short flags: %v", ErrFraming, err)
	}
	if b1[0]&^fetchFlagTrace != 0 {
		return req, fmt.Errorf("%w: reserved flag bits %#x set", ErrFraming, b1[0])
	}
	if b1[0]&fetchFlagTrace != 0 {
		if req.Trace, err = obs.ReadTraceContext(r); err != nil {
			return req, fmt.Errorf("%w: short trace context: %v", ErrFraming, err)
		}
	}
	return req, nil
}

// WriteFetchResponse frames a successful payload with its CRC trailer.
func WriteFetchResponse(w io.Writer, payload []byte) error {
	hdr := append([]byte{}, fetchOKMagic[:]...)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(tail[:])
	return err
}

// WriteFetchError frames a clean remote failure.
func WriteFetchError(w io.Writer, code uint8, msg string) error {
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	buf := append([]byte{}, fetchErrMagic[:]...)
	buf = append(buf, code)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	return err
}

// ReadFetchResponse parses the owner's answer. maxBytes (<= 0 selects
// DefaultMaxArtifactBytes) bounds the accepted payload against hostile
// length fields. A clean remote miss maps to ErrNotFound, a CRC
// mismatch to ErrChecksum; both tell the requester to compute locally.
func ReadFetchResponse(r io.Reader, maxBytes int64) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxArtifactBytes
	}
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short response magic: %v", ErrFraming, err)
	}
	switch magic {
	case fetchErrMagic:
		var hdr [3]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: short error frame: %v", ErrFraming, err)
		}
		msg := make([]byte, binary.BigEndian.Uint16(hdr[1:]))
		if _, err := io.ReadFull(r, msg); err != nil {
			return nil, fmt.Errorf("%w: short error message: %v", ErrFraming, err)
		}
		if hdr[0] == CodeNotFound {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, msg)
		}
		return nil, fmt.Errorf("%w: remote: %s", ErrPeerUnavailable, msg)
	case fetchOKMagic:
		var lb [4]byte
		if _, err := io.ReadFull(r, lb[:]); err != nil {
			return nil, fmt.Errorf("%w: short payload length: %v", ErrFraming, err)
		}
		n := int64(binary.BigEndian.Uint32(lb[:]))
		if n > maxBytes {
			return nil, fmt.Errorf("%w: payload length %d over budget %d", ErrFraming, n, maxBytes)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: short payload: %v", ErrFraming, err)
		}
		var tail [4]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return nil, fmt.Errorf("%w: short checksum: %v", ErrFraming, err)
		}
		if binary.BigEndian.Uint32(tail[:]) != crc32.Checksum(payload, crcTable) {
			return nil, ErrChecksum
		}
		return payload, nil
	default:
		return nil, fmt.Errorf("%w: bad response magic %q", ErrFraming, magic[:])
	}
}
