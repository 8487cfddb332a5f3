// Replication stream support: reading durable frames by LSN.
//
// A replication primary ships its log to followers straight out of
// the group-commit machinery: a record is streamable the moment the
// flush leader's fsync covers it (the `flushed` frontier), so the
// stream needs no second bookkeeping — ReadDurable serves complete
// frames below the frontier and WaitDurable parks on the same
// condition variable the flush leader already broadcasts.
//
// Truncation contract: TruncateBefore swaps the backing file under
// the append lock, closing the old handle. A reader that raced the
// swap sees its ReadAt fail on the closed handle; ReadDurable then
// re-checks the base under the lock and either retries against the
// fresh handle (its resume point survived the truncation — the bytes
// at a logical LSN are identical in both files) or returns the typed
// ErrTruncated, telling the follower to re-bootstrap from the
// snapshot chain. A reader never sees a torn or silently wrong frame.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
)

// ErrTruncated is returned by ReadDurable when the requested resume
// LSN is below the log's base: TruncateBefore dropped that prefix, so
// the reader cannot resume from the log and must re-bootstrap from a
// checkpoint snapshot chain instead.
var ErrTruncated = errors.New("wal: resume LSN below log base (truncated)")

// ErrWaitCanceled is returned by WaitDurable when its stop channel
// fires before any new bytes become durable.
var ErrWaitCanceled = errors.New("wal: wait canceled")

// Frame is one complete log record as handed to a stream reader.
type Frame struct {
	LSN     LSN
	Payload []byte
}

// Flushed returns the durable frontier: every byte below it is on
// stable storage (or, for a NoSync log, has been through a Sync call,
// which is as durable as that log ever gets). Records at or above it
// may still be volatile and must not be streamed.
func (l *Log) Flushed() LSN {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	return l.flushed
}

// WaitDurable blocks until the durable frontier passes from, then
// returns the new frontier. It returns ErrClosed once the log closes
// and ErrWaitCanceled if stop fires first; in both cases the returned
// LSN is the frontier at that moment.
func (l *Log) WaitDurable(from LSN, stop <-chan struct{}) (LSN, error) {
	var aborted atomic.Bool
	if stop != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-stop:
				aborted.Store(true)
				l.fmu.Lock()
				l.fcond.Broadcast()
				l.fmu.Unlock()
			case <-done:
			}
		}()
	}
	l.fmu.Lock()
	defer l.fmu.Unlock()
	for l.flushed <= from && !l.closedFlag.Load() && !aborted.Load() {
		l.fcond.Wait()
	}
	if l.flushed > from {
		return l.flushed, nil
	}
	if l.closedFlag.Load() {
		return l.flushed, ErrClosed
	}
	return l.flushed, ErrWaitCanceled
}

// ReadDurable returns complete frames starting at LSN from, reading
// no further than the durable frontier and stopping after roughly
// maxBytes of payload (at least one frame is returned if any is
// available; maxBytes <= 0 selects a 1 MiB default). The second
// result is the LSN to resume from. An empty batch with a nil error
// means nothing durable is available at from yet.
//
// If from is below the log base — the prefix was truncated away —
// ReadDurable returns ErrTruncated, including when a concurrent
// TruncateBefore swapped the file mid-read.
func (l *Log) ReadDurable(from LSN, maxBytes int) ([]Frame, LSN, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	limit := l.Flushed()
	if from >= limit {
		return nil, from, nil
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil, from, ErrClosed
		}
		if from < l.base {
			l.mu.Unlock()
			return nil, from, ErrTruncated
		}
		base, f := l.base, l.f
		l.mu.Unlock()
		frames, next, err := readFrameRange(f, base, from, limit, maxBytes)
		if err == nil {
			return frames, next, nil
		}
		lastErr = err
		// The read likely raced TruncateBefore's file swap: the old
		// handle was closed under l.mu once the rename landed. Loop to
		// re-check the base — a resume point that fell below the new
		// base turns into the clean ErrTruncated above; one that
		// survived retries against the fresh handle (truncation never
		// changes the bytes at a surviving LSN).
	}
	return nil, from, fmt.Errorf("wal: read durable at %d: %w", from, lastErr)
}

// readFrameRange reads frames [from, limit) from a snapshot of the
// backing file taken under the log mutex. Any I/O or checksum error
// aborts the whole batch; the caller decides whether it was a swap
// race worth retrying.
func readFrameRange(f *os.File, base, from, limit LSN, maxBytes int) ([]Frame, LSN, error) {
	var frames []Frame
	var hdr [frameOverhead]byte
	off := from
	total := 0
	for off < limit && total < maxBytes {
		pos := int64(off-base) + headerSize
		if _, err := f.ReadAt(hdr[:], pos); err != nil {
			return nil, from, err
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if off+LSN(frameOverhead)+LSN(length) > limit {
			// A frame straddling the durable frontier: its tail is not
			// fsynced yet, so it ships in a later batch.
			break
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, pos+frameOverhead); err != nil {
			return nil, from, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, from, fmt.Errorf("wal: bad frame crc at lsn %d", off)
		}
		frames = append(frames, Frame{LSN: off, Payload: payload})
		off += LSN(frameOverhead) + LSN(length)
		total += frameOverhead + int(length)
	}
	return frames, off, nil
}

// InitFile creates an empty log file at path whose header names base
// as the first LSN, so the first record appended lands exactly at
// base. A store opening over a snapshot chain uses it to start its log
// at the chain watermark when the log ends below it; on a replication
// follower that watermark is an LSN of the primary's log, so the two
// logs line up. It fails if path already exists.
func InitFile(path string, base LSN) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: init %s: %w", path, err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint64(hdr[8:16], uint64(base))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: init header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: init sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: init close: %w", err)
	}
	return SyncDir(filepath.Dir(path))
}
