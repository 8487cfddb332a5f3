// Package repl ships the write-ahead log from a primary store to
// read-only followers. The primary streams committed batches straight
// out of the WAL's group-commit machinery (a batch is streamable the
// moment the flush leader's fsync covers it); a follower bootstraps
// from the primary's snapshot chain, tails the stream, applies each
// batch through the store's replicated-apply path, and serves
// read-only queries at its applied-LSN frontier through the MVCC
// snapshot reader.
//
// Stream protocol (one TCP connection per follower):
//
//	follower → primary   hello{mode, resume}
//	primary  → follower  ok{from}            resume accepted; batches follow
//	                  or resync              resume below the WAL base (or a
//	                                         fresh follower): chain files and
//	                                         chainEnd follow, after which the
//	                                         follower re-sends hello with the
//	                                         watermark it achieved
//	primary  → follower  batch{lsn, sentNanos, redo}  one committed group
//	primary  → follower  heartbeat{flushed, sentNanos} while idle
//
// A resync can also arrive mid-stream: when a checkpoint on the
// primary truncates the WAL past a slow follower's frontier, the
// primary switches the connection back into bootstrap mode rather
// than failing it. The handshake loop converges because each shipped
// chain's watermark is at or above the WAL base that invalidated the
// previous resume point.
//
// Every message is one frame of the system's one wire codec
// (ipc.WriteFrame/ipc.ReadFrame, described in package ipc), typed
// below, with a binary payload.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/ipc"
	"repro/internal/wal"
)

// Frame types.
const (
	frameHello     byte = 1
	frameOK        byte = 2
	frameResync    byte = 3
	frameFile      byte = 4
	frameChainEnd  byte = 5
	frameBatch     byte = 6
	frameHeartbeat byte = 7
	frameErr       byte = 8
)

// Hello modes.
const (
	// modeBootstrap asks for a full chain ship: the follower has no
	// usable local state.
	modeBootstrap byte = 0
	// modeResume asks to tail from the hello's resume LSN.
	modeResume byte = 1
)

// streamMagic opens every hello payload; a mismatch means the peer is
// not speaking this protocol (or a different version of it).
const streamMagic = "hipacrs1"

// fileChunkSize is the largest file frame a bootstrap sends (well
// under ipc.MaxFrame); consecutive file frames naming the same file
// append to it.
const fileChunkSize = 4 << 20

// sendErr best-effort ships an error frame before the sender hangs up.
func sendErr(w io.Writer, msg string) {
	ipc.WriteFrame(w, frameErr, []byte(msg)) // the connection is dying anyway
}

// --- payload codecs ---

func encodeHello(mode byte, resume wal.LSN) []byte {
	buf := make([]byte, 0, len(streamMagic)+9)
	buf = append(buf, streamMagic...)
	buf = append(buf, mode)
	return binary.BigEndian.AppendUint64(buf, uint64(resume))
}

func parseHello(payload []byte) (mode byte, resume wal.LSN, err error) {
	if len(payload) != len(streamMagic)+9 {
		return 0, 0, errors.New("repl: malformed hello")
	}
	if string(payload[:len(streamMagic)]) != streamMagic {
		return 0, 0, errors.New("repl: bad hello magic")
	}
	mode = payload[len(streamMagic)]
	if mode != modeBootstrap && mode != modeResume {
		return 0, 0, fmt.Errorf("repl: unknown hello mode %d", mode)
	}
	resume = wal.LSN(binary.BigEndian.Uint64(payload[len(streamMagic)+1:]))
	return mode, resume, nil
}

func encodeOK(from wal.LSN) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(from))
}

func parseOK(payload []byte) (wal.LSN, error) {
	if len(payload) != 8 {
		return 0, errors.New("repl: malformed ok")
	}
	return wal.LSN(binary.BigEndian.Uint64(payload)), nil
}

func encodeFile(name string, chunk []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(name)))
	buf = append(buf, name...)
	return append(buf, chunk...)
}

func parseFile(payload []byte) (name string, chunk []byte, err error) {
	n, m := binary.Uvarint(payload)
	if m <= 0 || n > uint64(len(payload)-m) {
		return "", nil, errors.New("repl: malformed file frame")
	}
	name = string(payload[m : m+int(n)])
	if name == "" {
		return "", nil, errors.New("repl: file frame without a name")
	}
	return name, payload[m+int(n):], nil
}

func encodeBatch(lsn wal.LSN, sentNanos int64, redo []byte) []byte {
	buf := make([]byte, 0, 16+len(redo))
	buf = binary.BigEndian.AppendUint64(buf, uint64(lsn))
	buf = binary.BigEndian.AppendUint64(buf, uint64(sentNanos))
	return append(buf, redo...)
}

func parseBatch(payload []byte) (lsn wal.LSN, sentNanos int64, redo []byte, err error) {
	if len(payload) < 16 {
		return 0, 0, nil, errors.New("repl: malformed batch")
	}
	lsn = wal.LSN(binary.BigEndian.Uint64(payload[0:8]))
	sentNanos = int64(binary.BigEndian.Uint64(payload[8:16]))
	return lsn, sentNanos, payload[16:], nil
}

func encodeHeartbeat(flushed wal.LSN, sentNanos int64) []byte {
	buf := binary.BigEndian.AppendUint64(nil, uint64(flushed))
	return binary.BigEndian.AppendUint64(buf, uint64(sentNanos))
}

func parseHeartbeat(payload []byte) (flushed wal.LSN, sentNanos int64, err error) {
	if len(payload) != 16 {
		return 0, 0, errors.New("repl: malformed heartbeat")
	}
	flushed = wal.LSN(binary.BigEndian.Uint64(payload[0:8]))
	sentNanos = int64(binary.BigEndian.Uint64(payload[8:16]))
	return flushed, sentNanos, nil
}
