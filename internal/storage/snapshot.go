// Snapshot files and the delta chain.
//
// A checkpoint writes one of two file kinds into the durability
// directory:
//
//   - a full snapshot ("snapshot"): every committed record;
//   - a delta snapshot ("delta-NNNNNN"): only the records dirtied
//     since the previous chain element, chained to that parent by the
//     parent's watermark LSN and trailing CRC.
//
// Recovery loads the newest full snapshot, folds the delta files
// forward in sequence order — verifying each file's own CRC and its
// parent link, and stopping at the first element that does not extend
// the chain — then replays the WAL suffix at or above the achieved
// watermark. A crash-truncated chain is therefore recovered from its
// longest valid prefix; the wal-base-vs-watermark check in Open
// refuses the directory only if log records the broken chain would
// need have already been truncated away.
//
// File layout (format v3, magic "hipacsp3"):
//
//	[8]byte  magic
//	byte     kind (0 = full, 1 = delta)
//	uvarint  watermark LSN
//	uvarint  next OID
//	delta only:
//	  uvarint parent watermark LSN
//	  uint32  parent CRC (big-endian; the parent file's trailing CRC)
//	uvarint  class-cardinality count, then per class (sorted by name):
//	  uvarint name length, name bytes, uvarint extent cardinality
//	records in redo form (uvarint count, then frames)
//	uint32   CRC-32 (IEEE, big-endian) over everything above
//
// The class cardinalities are checkpoint-time planner statistics: the
// store's live per-class extent counters as of the cut (global state,
// even in a delta element). Recovery seeds ExtentEstimate from the
// newest element's table, so a cold engine costs plans with real
// extents before touching any live structure.
//
// Formats v1 ("hipacsp1": no kind byte, no parent link, read as a
// full snapshot) and v2 ("hipacsp2": no cardinality table) are still
// read so directories written by older builds keep opening.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/datum"
	"repro/internal/failpoint"
	"repro/internal/wal"
)

const (
	// snapshotMagicV1 tags the legacy single-file snapshot format.
	snapshotMagicV1 = "hipacsp1"
	// snapshotMagicV2 tags the chain format without the class-
	// cardinality table.
	snapshotMagicV2 = "hipacsp2"
	// snapshotMagic tags the current format: kind byte + parent link +
	// checkpoint-time class cardinalities.
	snapshotMagic = "hipacsp3"

	snapKindFull  byte = 0
	snapKindDelta byte = 1

	// fullSnapshotName is the full snapshot's file name; deltaPrefix
	// plus a six-digit sequence number names each chain element.
	fullSnapshotName = "snapshot"
	deltaPrefix      = "delta-"
)

// deltaName returns the file name of chain element seq (1-based).
func deltaName(seq int) string {
	return fmt.Sprintf("%s%06d", deltaPrefix, seq)
}

// snapshot is the decoded form of one snapshot or delta file.
type snapshot struct {
	kind      byte
	watermark wal.LSN
	nextOID   datum.OID
	// parentWatermark/parentCRC link a delta to the chain element it
	// extends; zero for full snapshots.
	parentWatermark wal.LSN
	parentCRC       uint32
	// cards is the checkpoint-time per-class extent cardinality table
	// (planner statistics); nil for pre-v3 files.
	cards map[string]uint64
	recs  []Object
	// crc is the file's own trailing CRC — the link value a child
	// delta must carry.
	crc uint32
}

// encodeSnapshot serializes sn (setting sn.crc as a side effect).
func encodeSnapshot(sn *snapshot) []byte {
	buf := append([]byte(nil), snapshotMagic...)
	buf = append(buf, sn.kind)
	buf = binary.AppendUvarint(buf, uint64(sn.watermark))
	buf = binary.AppendUvarint(buf, uint64(sn.nextOID))
	if sn.kind == snapKindDelta {
		buf = binary.AppendUvarint(buf, uint64(sn.parentWatermark))
		buf = binary.BigEndian.AppendUint32(buf, sn.parentCRC)
	}
	names := make([]string, 0, len(sn.cards))
	for name := range sn.cards {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic bytes -> deterministic CRC
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, sn.cards[name])
	}
	buf = append(buf, encodeRedo(sn.recs)...)
	sn.crc = crc32.ChecksumIEEE(buf)
	return binary.BigEndian.AppendUint32(buf, sn.crc)
}

// decodeSnapshot parses and verifies a snapshot produced by
// encodeSnapshot (either format version).
func decodeSnapshot(buf []byte) (*snapshot, error) {
	if len(buf) < len(snapshotMagic)+4 {
		return nil, errors.New("storage: snapshot too short")
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	stored := binary.BigEndian.Uint32(tail)
	if crc32.ChecksumIEEE(body) != stored {
		return nil, errors.New("storage: snapshot checksum mismatch")
	}
	sn := &snapshot{crc: stored}
	var n int
	var hasCards bool
	switch string(body[:len(snapshotMagic)]) {
	case snapshotMagicV1:
		sn.kind = snapKindFull
		n = len(snapshotMagicV1)
	case snapshotMagicV2, snapshotMagic:
		hasCards = string(body[:len(snapshotMagic)]) == snapshotMagic
		n = len(snapshotMagic)
		if n >= len(body) {
			return nil, errors.New("storage: snapshot missing kind")
		}
		sn.kind = body[n]
		n++
		if sn.kind != snapKindFull && sn.kind != snapKindDelta {
			return nil, fmt.Errorf("storage: unknown snapshot kind %d", sn.kind)
		}
	default:
		return nil, errors.New("storage: bad snapshot magic")
	}
	watermark, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, errors.New("storage: bad snapshot watermark")
	}
	n += m
	sn.watermark = wal.LSN(watermark)
	nextOID, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, errors.New("storage: bad snapshot header")
	}
	n += m
	sn.nextOID = datum.OID(nextOID)
	if sn.kind == snapKindDelta {
		pw, m := binary.Uvarint(body[n:])
		if m <= 0 {
			return nil, errors.New("storage: bad delta parent watermark")
		}
		n += m
		if len(body)-n < 4 {
			return nil, errors.New("storage: bad delta parent crc")
		}
		sn.parentWatermark = wal.LSN(pw)
		sn.parentCRC = binary.BigEndian.Uint32(body[n : n+4])
		n += 4
	}
	if hasCards {
		var err error
		if sn.cards, n, err = decodeCards(body, n); err != nil {
			return nil, err
		}
	}
	recs, err := decodeRedo(body[n:])
	if err != nil {
		return nil, fmt.Errorf("storage: snapshot: %w", err)
	}
	sn.recs = recs
	return sn, nil
}

// decodeCards parses the class-cardinality table at body[n:],
// returning the table and the offset past it. Length checks are
// untrusted-input safe (the fuzz target feeds arbitrary bytes).
func decodeCards(body []byte, n int) (map[string]uint64, int, error) {
	cnt, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, 0, errors.New("storage: bad snapshot stats count")
	}
	n += m
	var cards map[string]uint64
	for i := uint64(0); i < cnt; i++ {
		l, m := binary.Uvarint(body[n:])
		if m <= 0 {
			return nil, 0, errors.New("storage: bad snapshot stats name length")
		}
		n += m
		if l > uint64(len(body)-n) {
			return nil, 0, errors.New("storage: snapshot stats name overruns body")
		}
		name := string(body[n : n+int(l)])
		n += int(l)
		card, m := binary.Uvarint(body[n:])
		if m <= 0 {
			return nil, 0, errors.New("storage: bad snapshot stats cardinality")
		}
		n += m
		if cards == nil {
			cards = map[string]uint64{}
		}
		cards[name] = card
	}
	return cards, n, nil
}

// readSnapshotFile reads and decodes one snapshot or delta file,
// also reporting its encoded size for compaction accounting.
func readSnapshotFile(path string) (*snapshot, int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	sn, err := decodeSnapshot(buf)
	return sn, len(buf), err
}

// deltaFiles lists the chain files in dir in sequence order, returning
// parallel slices of names and their parsed sequence numbers.
func deltaFiles(dir string) (names []string, seqs []int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: list deltas: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, deltaPrefix) || strings.HasSuffix(name, ".tmp") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimPrefix(name, deltaPrefix))
		if err != nil {
			continue // not a chain element
		}
		names = append(names, name)
		seqs = append(seqs, seq)
	}
	sort.Sort(&bySeq{names, seqs})
	return names, seqs, nil
}

type bySeq struct {
	names []string
	seqs  []int
}

func (b *bySeq) Len() int           { return len(b.seqs) }
func (b *bySeq) Less(i, j int) bool { return b.seqs[i] < b.seqs[j] }
func (b *bySeq) Swap(i, j int) {
	b.names[i], b.names[j] = b.names[j], b.names[i]
	b.seqs[i], b.seqs[j] = b.seqs[j], b.seqs[i]
}

// ChainFileNames lists the snapshot chain files present in dir — the
// full snapshot (if any) followed by the delta files in sequence
// order. A replication primary ships exactly these files to a
// bootstrapping follower; the follower's own chain validation (the
// same parent-link walk recovery uses) sorts out any inconsistency a
// racing checkpoint may have introduced between listing and reading.
func ChainFileNames(dir string) ([]string, error) {
	var names []string
	if _, err := os.Stat(filepath.Join(dir, fullSnapshotName)); err == nil {
		names = append(names, fullSnapshotName)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	dn, _, err := deltaFiles(dir)
	if err != nil {
		return nil, err
	}
	return append(names, dn...), nil
}

// ChainWatermark validates the snapshot chain in dir exactly as Open
// would — full snapshot, then every delta that extends the chain by
// its parent watermark and CRC — and returns the achieved watermark,
// without building a store. A replication follower uses it after
// writing a shipped chain to learn the LSN its local WAL must start
// at. A missing full snapshot yields watermark 0 (an empty chain, not
// an error); a corrupt full snapshot is an error, matching loadChain.
func ChainWatermark(dir string) (wal.LSN, error) {
	var tip wal.LSN
	var tipCRC uint32
	full, _, err := readSnapshotFile(filepath.Join(dir, fullSnapshotName))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return 0, fmt.Errorf("storage: read snapshot: %w", err)
	case full.kind != snapKindFull:
		return 0, errors.New("storage: snapshot file holds a delta")
	default:
		tip, tipCRC = full.watermark, full.crc
	}
	names, _, err := deltaFiles(dir)
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		d, _, err := readSnapshotFile(filepath.Join(dir, name))
		if err != nil || d.kind != snapKindDelta ||
			d.parentWatermark != tip || d.parentCRC != tipCRC || d.watermark < tip {
			break
		}
		tip, tipCRC = d.watermark, d.crc
	}
	return tip, nil
}

// loadChain installs the snapshot chain at s.dir: the full snapshot if
// present, then every delta that validly extends it, in order. It
// returns the achieved watermark (the LSN below which the chain covers
// every committed record) and leaves the chain-link state (tip
// watermark/CRC, delta sequence counter) set for the next checkpoint.
//
// A delta that is torn, corrupt, or does not link to the current tip
// ends the fold: later elements cannot be applied without it. That is
// the correct reading of every crash the checkpointer can leave
// behind — a torn tail delta (crash mid-write) truncates the chain to
// its durable prefix, and a stale pre-compaction delta (crash between
// the compacted full snapshot's rename and the chain deletion) fails
// its parent-link check against the new full snapshot. Whether a
// broken chain is *fatal* is decided by the caller: Open refuses the
// directory only if the WAL's base exceeds the achieved watermark,
// i.e. records the chain should have covered are gone from both
// places.
func (s *Store) loadChain() (wal.LSN, error) {
	var tip wal.LSN
	var tipCRC uint32
	full, fullSize, err := readSnapshotFile(filepath.Join(s.dir, fullSnapshotName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory (or WAL-only): chain starts empty.
	case err != nil:
		// The full snapshot was fsynced before its rename, so it can
		// never be torn by a crash; corruption is real damage. Refuse
		// rather than silently recover less than was acknowledged.
		return 0, fmt.Errorf("storage: read snapshot: %w", err)
	case full.kind != snapKindFull:
		return 0, errors.New("storage: snapshot file holds a delta")
	default:
		s.installSnapshot(full)
		tip, tipCRC = full.watermark, full.crc
		s.haveFull = true
		s.fullBytes = uint64(fullSize)
	}

	names, seqs, err := deltaFiles(s.dir)
	if err != nil {
		return 0, err
	}
	for i, name := range names {
		d, dSize, err := readSnapshotFile(filepath.Join(s.dir, name))
		if err != nil || d.kind != snapKindDelta ||
			d.parentWatermark != tip || d.parentCRC != tipCRC || d.watermark < tip {
			break // end of the valid chain prefix
		}
		s.installSnapshot(d)
		tip, tipCRC = d.watermark, d.crc
		s.deltaSeq = seqs[i]
		s.deltaBytes += uint64(dSize)
	}
	s.chainWatermark, s.chainCRC = tip, tipCRC
	return tip, nil
}

// seedStats records the per-class cardinalities of one chain element;
// later elements overwrite earlier ones, so after loadChain the seed
// is the newest checkpoint's statistics. Pre-v3 elements carry none.
func (s *Store) seedStats(cards map[string]uint64) {
	if len(cards) == 0 {
		return
	}
	s.statsSeed = make(map[string]uint64, len(cards))
	for k, v := range cards {
		s.statsSeed[k] = v
	}
}

// installSnapshot applies one decoded chain element to the store.
// Runs during Open, before any concurrency, but takes the writer mutex
// anyway so installCommitted's contract holds. The whole element is
// stamped with one fresh commit LSN — on-disk records carry no
// version history, so recovery rebuilds single-version chains.
func (s *Store) installSnapshot(sn *snapshot) {
	s.seedStats(sn.cards)
	if sn.nextOID > 0 {
		s.raiseNextOID(sn.nextOID - 1)
	}
	s.cmu.Lock()
	clsn := s.beginCommitLocked()
	s.cmu.Unlock()
	s.mu.Lock()
	for _, rec := range sn.recs {
		s.raiseNextOID(rec.OID)
		s.installCommitted(committedOwner, rec, clsn)
	}
	s.mu.Unlock()
	s.endCommit(clsn)
}

// writeSnapshotFile durably writes sn to name inside s.dir: encode
// into a temp file, fsync it, rename into place, fsync the directory.
// midSite and renameSite name the failpoints hit after the raw write
// and after the rename. Returns the encoded size in bytes (the input
// to adaptive compaction accounting).
func (s *Store) writeSnapshotFile(sn *snapshot, name, tmpName, midSite, renameSite string) (int, error) {
	buf := encodeSnapshot(sn)
	tmp := filepath.Join(s.dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("storage: create %s: %w", tmpName, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, fmt.Errorf("storage: write %s: %w", tmpName, err)
	}
	failpoint.Hit(midSite)
	// fsync before the rename: the rename must never install a file
	// whose bytes could still be lost by a power failure.
	if !s.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, fmt.Errorf("storage: sync %s: %w", tmpName, err)
		}
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("storage: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return 0, fmt.Errorf("storage: install %s: %w", name, err)
	}
	failpoint.Hit(renameSite)
	if !s.noSync {
		if err := syncDir(s.dir); err != nil {
			return 0, err
		}
	}
	return len(buf), nil
}

// SnapshotInfo is the decoded header of one snapshot or delta file,
// as reported by InspectSnapshotFile and `hipac-cli snapshot inspect`.
type SnapshotInfo struct {
	Path string `json:"path"`
	// Format is the magic string ("hipacsp1", "hipacsp2", or
	// "hipacsp3").
	Format string `json:"format"`
	// Kind is "full" or "delta".
	Kind      string `json:"kind"`
	Watermark uint64 `json:"watermark"`
	NextOID   uint64 `json:"nextOid"`
	// ParentWatermark/ParentCRC are the chain link (delta only).
	ParentWatermark uint64 `json:"parentWatermark,omitempty"`
	ParentCRC       uint32 `json:"parentCrc,omitempty"`
	// ClassCards is the checkpoint-time per-class extent cardinality
	// table (v3 files; planner statistics seeded at recovery).
	ClassCards map[string]uint64 `json:"classCards,omitempty"`
	Records    int               `json:"records"`
	// CRC is the file's stored trailing checksum; CRCOK reports
	// whether the body matches it.
	CRC   uint32 `json:"crc"`
	CRCOK bool   `json:"crcOk"`
}

// InspectSnapshotFile reads the snapshot or delta file at path without
// touching any store state — the offline half of `hipac-cli snapshot
// inspect`. Unlike recovery it tolerates a checksum mismatch (the
// header is still parsed best-effort and CRCOK reports false) so a
// damaged file can be diagnosed; a file whose header does not parse at
// all returns an error.
func InspectSnapshotFile(path string) (*SnapshotInfo, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < len(snapshotMagic)+4 {
		return nil, errors.New("storage: snapshot too short")
	}
	info := &SnapshotInfo{Path: path}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	info.CRC = binary.BigEndian.Uint32(tail)
	info.CRCOK = crc32.ChecksumIEEE(body) == info.CRC

	var kind byte
	var n int
	hasCards := false
	switch magic := string(body[:len(snapshotMagic)]); magic {
	case snapshotMagicV1:
		info.Format, info.Kind = snapshotMagicV1, "full"
		n = len(snapshotMagicV1)
	case snapshotMagicV2, snapshotMagic:
		info.Format = magic
		hasCards = magic == snapshotMagic
		n = len(magic)
		if n >= len(body) {
			return nil, errors.New("storage: snapshot missing kind")
		}
		kind = body[n]
		n++
		switch kind {
		case snapKindFull:
			info.Kind = "full"
		case snapKindDelta:
			info.Kind = "delta"
		default:
			return nil, fmt.Errorf("storage: unknown snapshot kind %d", kind)
		}
	default:
		return nil, errors.New("storage: bad snapshot magic")
	}
	watermark, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, errors.New("storage: bad snapshot watermark")
	}
	n += m
	info.Watermark = watermark
	nextOID, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, errors.New("storage: bad snapshot header")
	}
	n += m
	info.NextOID = nextOID
	if kind == snapKindDelta {
		pw, m := binary.Uvarint(body[n:])
		if m <= 0 {
			return nil, errors.New("storage: bad delta parent watermark")
		}
		n += m
		if len(body)-n < 4 {
			return nil, errors.New("storage: bad delta parent crc")
		}
		info.ParentWatermark = pw
		info.ParentCRC = binary.BigEndian.Uint32(body[n : n+4])
		n += 4
	}
	if hasCards {
		cards, m, err := decodeCards(body, n)
		if err != nil {
			return nil, err
		}
		info.ClassCards = cards
		n = m
	}
	// The record count is the next uvarint; the frames themselves are
	// not decoded (a damaged body should not block header inspection).
	cnt, m := binary.Uvarint(body[n:])
	if m <= 0 {
		return nil, errors.New("storage: bad snapshot record count")
	}
	info.Records = int(cnt)
	return info, nil
}
