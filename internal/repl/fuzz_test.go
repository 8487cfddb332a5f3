package repl

import (
	"bytes"
	"testing"

	"repro/internal/ipc"
)

// fuzzSeedStream concatenates one valid frame of every type, so the
// fuzzer starts from a fully well-formed stream and mutates from
// there.
func fuzzSeedStream() []byte {
	var b bytes.Buffer
	ipc.WriteFrame(&b, frameHello, encodeHello(modeResume, 1234))
	ipc.WriteFrame(&b, frameOK, encodeOK(1234))
	ipc.WriteFrame(&b, frameResync, nil)
	ipc.WriteFrame(&b, frameFile, encodeFile("snapshot", []byte("chunk-bytes")))
	ipc.WriteFrame(&b, frameChainEnd, nil)
	ipc.WriteFrame(&b, frameBatch, encodeBatch(1234, 42, []byte("redo-bytes")))
	ipc.WriteFrame(&b, frameHeartbeat, encodeHeartbeat(5678, 43))
	ipc.WriteFrame(&b, frameErr, []byte("boom"))
	return b.Bytes()
}

// FuzzReplStream drives the wire decoder and every per-type payload
// parser over arbitrary bytes: no panic, no unbounded allocation (the
// frame header's length is validated before the payload buffer is
// made), and every payload a parser accepts must survive a re-encode
// round trip.
func FuzzReplStream(f *testing.F) {
	f.Add(fuzzSeedStream())
	f.Add([]byte{})
	f.Add([]byte{frameBatch, 0xff, 0xff, 0xff, 0xff})
	corrupt := fuzzSeedStream()
	corrupt[len(corrupt)-1] ^= 0x40 // breaks the last frame's CRC
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 1<<10; i++ {
			typ, payload, err := ipc.ReadFrame(r)
			if err != nil {
				return
			}
			switch typ {
			case frameHello:
				if mode, resume, err := parseHello(payload); err == nil {
					if !bytes.Equal(encodeHello(mode, resume), payload) {
						t.Fatalf("hello round trip: %x", payload)
					}
				}
			case frameOK:
				if from, err := parseOK(payload); err == nil {
					if !bytes.Equal(encodeOK(from), payload) {
						t.Fatalf("ok round trip: %x", payload)
					}
				}
			case frameFile:
				if name, chunk, err := parseFile(payload); err == nil {
					// The uvarint length prefix is not canonical, so
					// re-encoding may differ byte-wise; the parsed
					// fields themselves must round-trip.
					n2, c2, err := parseFile(encodeFile(name, chunk))
					if err != nil || n2 != name || !bytes.Equal(c2, chunk) {
						t.Fatalf("file round trip: %q %x", name, chunk)
					}
				}
			case frameBatch:
				if lsn, sent, redo, err := parseBatch(payload); err == nil {
					if !bytes.Equal(encodeBatch(lsn, sent, redo), payload) {
						t.Fatalf("batch round trip: %x", payload)
					}
				}
			case frameHeartbeat:
				if flushed, sent, err := parseHeartbeat(payload); err == nil {
					if !bytes.Equal(encodeHeartbeat(flushed, sent), payload) {
						t.Fatalf("heartbeat round trip: %x", payload)
					}
				}
			case frameResync, frameChainEnd, frameErr:
				// No payload structure to validate.
			}
		}
	})
}
