package cluster

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"dacpara"
)

// FuzzReadFrame hammers the framed-message decoder (u32 header length,
// JSON header, raw blob to EOF — the wire shape of poll responses and
// result uploads) with arbitrary bytes and checks its safety contract:
// it never panics, never allocates beyond its stated bounds (header
// capped at maxFrameHeaderBytes, blob at maxBlob), rejects anything
// whose header region is truncated, and everything it accepts survives
// a write/read roundtrip unchanged.
func FuzzReadFrame(f *testing.F) {
	mk := func(hdr any, blob []byte) []byte {
		var buf bytes.Buffer
		if err := writeFramed(&buf, hdr, blob); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := mk(pollHeader{
		Task: Task{
			Job:        "j1",
			Req:        dacpara.Job{Flow: "b; rw; b", Workers: 2, InputDigest: "ab12"},
			Attempt:    1,
			BlobDigest: "cd34",
		},
		Lease: "w1#e1#7",
	}, bytes.Repeat([]byte("aig "), 64))
	f.Add(valid)
	f.Add(mk(resultHeader{Verify: &dacpara.Verdict{Equivalent: true, Proved: true}}, nil))
	f.Add(valid[:2])                                // torn length field
	f.Add(valid[:6])                                // torn header
	f.Add(valid[:len(valid)-7])                     // torn blob: still a whole frame (blob runs to EOF)
	f.Add([]byte{})                                 // empty
	f.Add([]byte{0, 0, 0, 0})                       // zero-length header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{', '}'}) // saturated length field
	huge := make([]byte, 8)                         // header length just past the bound
	binary.LittleEndian.PutUint32(huge, maxFrameHeaderBytes+1)
	f.Add(huge)
	flip := append([]byte(nil), valid...) // bit flip inside the JSON header
	flip[8] ^= 0x10
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxBlob = 1 << 16
		var hdr pollHeader
		blob, err := readFramed(bytes.NewReader(data), &hdr, maxBlob)
		if err != nil {
			return // rejected: the only contract is "no panic" above
		}
		if int64(len(blob)) > maxBlob {
			t.Fatalf("accepted blob of %d bytes past the %d bound", len(blob), maxBlob)
		}
		hlen := binary.LittleEndian.Uint32(data[:4])
		if hlen == 0 || hlen > maxFrameHeaderBytes {
			t.Fatalf("accepted header length %d outside (0, %d]", hlen, maxFrameHeaderBytes)
		}
		// Truncating inside the header region must fail cleanly: a frame
		// header is atomic, there is no partial decode.
		if hlen >= 2 {
			cut := 4 + int(hlen)/2
			if _, terr := readFramed(bytes.NewReader(data[:cut]), &pollHeader{}, maxBlob); terr == nil {
				t.Fatal("decoded a frame with a truncated header")
			}
		}
		// Accepted frames roundtrip: re-encoding the decoded header and
		// blob yields a frame that decodes back to the same values (byte
		// equality of the header is too strong — fuzzed JSON may carry
		// reordered keys or unknown fields the canonical encoding drops).
		var rt bytes.Buffer
		if err := writeFramed(&rt, hdr, blob); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var hdr2 pollHeader
		blob2, err := readFramed(bytes.NewReader(rt.Bytes()), &hdr2, maxBlob)
		if err != nil {
			t.Fatalf("roundtrip decode failed: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("roundtrip blob diverged: %d vs %d bytes", len(blob), len(blob2))
		}
		if !reflect.DeepEqual(hdr, hdr2) {
			t.Fatalf("roundtrip header diverged:\n%+v\n%+v", hdr, hdr2)
		}
	})
}
