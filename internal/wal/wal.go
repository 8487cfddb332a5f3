// Package wal implements the write-ahead log that makes top-level
// transaction commits durable. The log is a single append-only file:
// a fixed header naming the base LSN, then length-prefixed,
// checksummed records. Recovery replays complete records in order and
// truncates at the first torn or corrupt record (standard redo-only
// recovery: only committed top-level effects are ever logged, so no
// undo pass is needed).
//
// LSNs are logical: they keep growing across checkpoint truncations.
// The file header records the LSN of the first record still present
// (the base), so a record with LSN x lives at file offset
// x - base + headerSize. TruncateBefore(lsn) drops the prefix below
// lsn by rewriting the file with a new base; the LSNs of surviving
// records do not change.
//
// File layout:
//
//	[8]byte  magic "hipacwl1"
//	uint64   base LSN (big-endian)
//	records...
//
// Record framing:
//
//	uint32 length (big-endian, payload bytes)
//	uint32 CRC-32 (IEEE) of the payload
//	payload
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/obs"
)

// LSN is a logical log sequence number. It equals the total number of
// frame bytes ever appended before the record, so it is monotone for
// the life of the database and survives checkpoint truncation.
type LSN uint64

const (
	// headerSize is the fixed file header: 8-byte magic + 8-byte base LSN.
	headerSize = 16
	// frameOverhead is the per-record framing cost (length + CRC).
	frameOverhead = 8
)

var magic = [8]byte{'h', 'i', 'p', 'a', 'c', 'w', 'l', '1'}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is an append-only write-ahead log. It is safe for concurrent
// use.
//
// Durability uses group commit: concurrent committers append their
// records, then park in SyncTo on the flush state; the first one in
// becomes the leader, fsyncs once for everyone whose record is
// already in the file, and wakes the whole batch. Committers arriving
// while a flush is in flight form the next batch, so at any moment at
// most one fsync is outstanding and N concurrent commits cost far
// fewer than N fsyncs.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	base   LSN // LSN of the first record in the file
	end    LSN // LSN at which the next record will be written
	closed bool
	sync   bool         // fsync on Sync() when true
	obsm   *obs.Metrics // nil-safe fsync latency + group size observer

	// Group-flush state, guarded by fmu (never held across the fsync
	// itself). flushed is the durable prefix; flushing marks a leader
	// mid-fsync; fgen bumps after every flush attempt so parked
	// followers know their flush finished; ferr is the most recent
	// flush attempt's error (nil after a success); pending counts
	// SyncTo calls waiting for durability.
	fmu      sync.Mutex
	fcond    *sync.Cond
	flushed  LSN
	flushing bool
	fgen     uint64
	ferr     error
	pending  int

	// nFsyncs counts physical fsync calls; nSyncReqs counts Sync/SyncTo
	// requests. nFsyncs/nSyncReqs < 1 means group commit is batching.
	nFsyncs   atomic.Uint64
	nSyncReqs atomic.Uint64

	// closedFlag mirrors closed for waiters parked on fcond (stream
	// readers in WaitDurable), which must not take mu while holding fmu
	// — Close holds mu when it broadcasts.
	closedFlag atomic.Bool
}

// Options configures a Log.
type Options struct {
	// NoSync disables fsync; Sync() becomes a no-op flush. Useful for
	// benchmarks and tests where durability across OS crashes is not
	// required.
	NoSync bool
	// Obs, when non-nil, receives fsync latencies and group sizes.
	Obs *obs.Metrics
}

// Open opens (creating if necessary) the log at path, scans it for the
// end of the valid prefix, and truncates any torn tail so subsequent
// appends start from a clean state.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path, sync: !opts.NoSync, obsm: opts.Obs}
	l.fcond = sync.NewCond(&l.fmu)
	if err := l.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	end, err := l.scanEnd()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(l.phys(end)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(l.phys(end), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l.end = end
	return l, nil
}

// readHeader loads (or, for a fresh file, writes) the file header and
// sets l.base. A file shorter than the header is treated as empty: a
// crash can tear the header of a log that never held a record, and in
// that case no durable data is lost by rewriting it.
func (l *Log) readHeader() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	if info.Size() < headerSize {
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: init: %w", err)
		}
		var hdr [headerSize]byte
		copy(hdr[:8], magic[:])
		if _, err := l.f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("wal: write header: %w", err)
		}
		l.base = 0
		return nil
	}
	var hdr [headerSize]byte
	if _, err := l.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: read header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return fmt.Errorf("wal: %s: bad magic", l.path)
	}
	l.base = LSN(binary.BigEndian.Uint64(hdr[8:16]))
	return nil
}

// phys maps a logical LSN to its byte offset in the current file.
func (l *Log) phys(lsn LSN) int64 {
	return int64(lsn-l.base) + headerSize
}

// scanEnd walks the log from the base, returning the LSN just past
// the last complete, checksum-valid record.
func (l *Log) scanEnd() (LSN, error) {
	info, err := l.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: stat: %w", err)
	}
	size := info.Size()
	off := int64(headerSize)
	var hdr [frameOverhead]byte
	for off+frameOverhead <= size {
		if _, err := l.f.ReadAt(hdr[:], off); err != nil {
			return 0, fmt.Errorf("wal: read header at %d: %w", off, err)
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if off+frameOverhead+int64(length) > size {
			break // torn record
		}
		payload := make([]byte, length)
		if _, err := l.f.ReadAt(payload, off+frameOverhead); err != nil {
			return 0, fmt.Errorf("wal: read payload at %d: %w", off, err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record: end of valid prefix
		}
		off += frameOverhead + int64(length)
	}
	return l.base + LSN(off-headerSize), nil
}

// Append writes one record and returns its LSN. The record is not
// durable until Sync returns.
func (l *Log) Append(payload []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	lsn := l.end
	frame := make([]byte, frameOverhead+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameOverhead:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.end += LSN(len(frame))
	failpoint.Hit("wal.afterAppend")
	return lsn, nil
}

// Sync makes all records appended so far durable. Equivalent to
// SyncTo(End()): the call joins the current group flush.
func (l *Log) Sync() error {
	return l.SyncTo(l.End())
}

// SyncTo blocks until every byte below target is durable. Concurrent
// callers batch: one leader fsyncs for the whole group while the rest
// park on the flush generation; a single flush therefore acknowledges
// many commits. A nil return guarantees the caller's record (ending
// at target) is on stable storage.
func (l *Log) SyncTo(target LSN) error {
	l.nSyncReqs.Add(1)
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !l.sync {
		// Durability is a no-op, but the durable frontier still
		// advances so stream readers (ReadDurable/WaitDurable) see the
		// records: "flushed" means "as durable as this log ever gets".
		end := l.End()
		l.fmu.Lock()
		if end > l.flushed {
			l.flushed = end
			l.fcond.Broadcast()
		}
		l.fmu.Unlock()
		return nil
	}
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.pending++
	defer func() { l.pending-- }()
	for l.flushed < target {
		if l.flushing {
			// Follower: park until the in-flight flush attempt
			// finishes, then re-check the durable prefix.
			gen := l.fgen
			for l.fgen == gen {
				l.fcond.Wait()
			}
			if l.ferr != nil && l.flushed < target {
				return l.ferr
			}
			continue
		}
		// Leader: flush once for every record already in the file.
		// The batch is everyone pending now; late arrivals form the
		// next batch (they observe flushing == true and park).
		l.flushing = true
		group := l.pending
		l.fmu.Unlock()
		end, err := l.flushOnce()
		l.fmu.Lock()
		l.flushing = false
		l.fgen++
		l.ferr = err
		if err == nil {
			if end > l.flushed {
				l.flushed = end
			}
			l.obsm.ObserveN(obs.HWALGroup, uint64(group))
		}
		l.fcond.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// flushOnce performs one physical flush: snapshot the append
// frontier, fsync, and report the frontier that is now durable. Runs
// outside both mutexes so concurrent Appends (growing the next batch)
// are never blocked by the disk.
func (l *Log) flushOnce() (LSN, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	end := l.end
	f := l.f
	l.mu.Unlock()
	l.nFsyncs.Add(1)
	tm := l.obsm.Timer(obs.HWALSync)
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: sync: %w", err)
	}
	tm.Done()
	failpoint.Hit("wal.afterFsync")
	return end, nil
}

// Fsyncs returns the number of physical fsync calls issued.
func (l *Log) Fsyncs() uint64 { return l.nFsyncs.Load() }

// SyncRequests returns the number of durability requests (Sync and
// SyncTo calls). With group commit, Fsyncs()/SyncRequests() < 1.
func (l *Log) SyncRequests() uint64 { return l.nSyncReqs.Load() }

// End returns the LSN one past the last appended record.
func (l *Log) End() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Base returns the LSN of the first record still present in the file.
// Records below Base have been dropped by TruncateBefore and must be
// covered by a checkpoint snapshot.
func (l *Log) Base() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Close syncs and closes the log file, waking any stream readers
// parked in WaitDurable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var firstErr error
	if l.sync {
		firstErr = l.f.Sync()
	}
	if err := l.f.Close(); firstErr == nil {
		firstErr = err
	}
	l.closedFlag.Store(true)
	l.fmu.Lock()
	l.fcond.Broadcast()
	l.fmu.Unlock()
	return firstErr
}

// Replay calls fn for every complete valid record from the base of
// the log, in append order. It stops early if fn returns an error and
// returns that error.
func (l *Log) Replay(fn func(lsn LSN, payload []byte) error) error {
	l.mu.Lock()
	base, end := l.base, l.end
	f := l.f
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	off := base
	var hdr [frameOverhead]byte
	for off < end {
		pos := int64(off-base) + headerSize
		if _, err := f.ReadAt(hdr[:], pos); err != nil {
			return fmt.Errorf("wal: replay header at %d: %w", off, err)
		}
		length := binary.BigEndian.Uint32(hdr[0:4])
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, pos+frameOverhead); err != nil {
			return fmt.Errorf("wal: replay payload at %d: %w", off, err)
		}
		if err := fn(off, payload); err != nil {
			return err
		}
		off += LSN(frameOverhead + length)
	}
	return nil
}

// TruncateBefore drops every record below lsn and returns the number
// of log bytes reclaimed. Records at or above lsn keep their LSNs.
// Used after a checkpoint: the snapshot covers every record below its
// watermark, so the prefix is dead weight.
//
// The prefix is dropped by copying the surviving suffix into a temp
// file with a new base header and atomically renaming it over the
// log. Appends and group flushes proceed before and after, but not
// during, the copy: TruncateBefore takes flush leadership (so no
// fsync is in flight on the handle being swapped out) and holds the
// append lock for the duration of the copy, which only covers records
// appended since the checkpoint scan.
func (l *Log) TruncateBefore(lsn LSN) (uint64, error) {
	// Become the flush leader: wait out any in-flight fsync, then mark
	// flushing so SyncTo callers park until the swap is complete.
	l.fmu.Lock()
	for l.flushing {
		gen := l.fgen
		for l.fgen == gen {
			l.fcond.Wait()
		}
	}
	l.flushing = true
	l.fmu.Unlock()

	newEnd, reclaimed, err := l.truncateLocked(lsn)

	l.fmu.Lock()
	l.flushing = false
	l.fgen++
	if err == nil {
		l.ferr = nil
		// The rewritten file was fsynced in full before the rename, so
		// everything up to the copy frontier is durable.
		if newEnd > l.flushed {
			l.flushed = newEnd
		}
	}
	l.fcond.Broadcast()
	l.fmu.Unlock()
	return reclaimed, err
}

// truncateLocked rewrites the log with base lsn under the append
// lock, returning the append frontier at swap time (durable in the
// new file) and the bytes reclaimed.
func (l *Log) truncateLocked(lsn LSN) (LSN, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	if lsn > l.end {
		lsn = l.end
	}
	if lsn <= l.base {
		return 0, 0, nil // nothing below lsn left to drop
	}
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: truncate: %w", err)
	}
	fail := func(e error) (LSN, uint64, error) {
		nf.Close()
		os.Remove(tmp)
		return 0, 0, e
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint64(hdr[8:16], uint64(lsn))
	if _, err := nf.Write(hdr[:]); err != nil {
		return fail(fmt.Errorf("wal: truncate header: %w", err))
	}
	suffix := io.NewSectionReader(l.f, l.phys(lsn), int64(l.end-lsn))
	if _, err := io.Copy(nf, suffix); err != nil {
		return fail(fmt.Errorf("wal: truncate copy: %w", err))
	}
	if l.sync {
		if err := nf.Sync(); err != nil {
			return fail(fmt.Errorf("wal: truncate sync: %w", err))
		}
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fail(fmt.Errorf("wal: truncate rename: %w", err))
	}
	// The swap is committed: nf is the log from here on, even if the
	// directory sync below fails.
	old := l.f
	l.f = nf
	old.Close()
	reclaimed := uint64(lsn - l.base)
	l.base = lsn
	if l.sync {
		if err := syncDir(filepath.Dir(l.path)); err != nil {
			return l.end, reclaimed, err
		}
	}
	return l.end, reclaimed, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
