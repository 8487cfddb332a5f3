package storage

// Fuzz targets for the two untrusted-input decoders in this package:
// the redo-record payload read back from the WAL and the snapshot file
// read at open. Both must reject arbitrary bytes with an error — never
// panic, never allocate unboundedly — and must round-trip their own
// encoder's output exactly.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"testing"

	"repro/internal/datum"
)

func fuzzSeedRecords() []Object {
	return []Object{
		{OID: 1, Class: "stock", Row: datum.RowOf(map[string]datum.Value{"qty": datum.Int(7), "sym": datum.Str("IBM")})},
		{OID: 2, Class: "stock", Row: datum.RowOf(map[string]datum.Value{"list": datum.List(datum.Int(1), datum.Int(2))})},
		{OID: 3, Class: "stock", Deleted: true},
	}
}

// legacySnapshot builds a CRC-valid chain file in a retired layout:
// "hipacsp1" (watermark, next OID, records) or "hipacsp2" (kind byte
// first, no cardinality table). Both readers must refuse it by magic.
func legacySnapshot(magic string) []byte {
	buf := []byte(magic)
	if magic == "hipacsp2" {
		buf = append(buf, snapKindFull)
	}
	buf = binary.AppendUvarint(buf, 12345)
	buf = binary.AppendUvarint(buf, 42)
	buf = append(buf, encodeRedo(fuzzSeedRecords())...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func FuzzDecodeRedo(f *testing.F) {
	f.Add(encodeRedo(fuzzSeedRecords()))
	f.Add(encodeRedo(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge count
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := decodeRedo(payload)
		if err != nil {
			return
		}
		// Valid payloads must survive a re-encode/re-decode round trip.
		again, err := decodeRedo(encodeRedo(recs))
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
	})
}

func FuzzSnapshotLoad(f *testing.F) {
	f.Add(encodeSnapshot(&snapshot{watermark: 0, nextOID: 1}))
	f.Add(encodeSnapshot(&snapshot{watermark: 12345, nextOID: 42, recs: fuzzSeedRecords()}))
	f.Add([]byte(snapshotMagic))
	f.Add(legacySnapshot("hipacsp1"))
	f.Add(legacySnapshot("hipacsp2"))
	f.Add([]byte{})
	corrupt := encodeSnapshot(&snapshot{watermark: 7, nextOID: 9, recs: fuzzSeedRecords()})
	corrupt[len(corrupt)-1] ^= 0xff // bad CRC
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, buf []byte) {
		sn, err := decodeSnapshot(buf)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(buf, []byte(snapshotMagic)) {
			t.Fatalf("decoder accepted magic %q", buf[:len(snapshotMagic)])
		}
		again, err := decodeSnapshot(encodeSnapshot(sn))
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if again.kind != sn.kind || again.watermark != sn.watermark ||
			again.nextOID != sn.nextOID || len(again.recs) != len(sn.recs) {
			t.Fatalf("round trip changed header: (%d,%d,%d,%d) -> (%d,%d,%d,%d)",
				sn.kind, sn.watermark, sn.nextOID, len(sn.recs),
				again.kind, again.watermark, again.nextOID, len(again.recs))
		}
	})
}

// FuzzDeltaSnapshot exercises the delta-specific surface: the kind
// byte, the parent chain link (watermark + CRC), and the record
// frames behind them. Valid inputs must round-trip exactly —
// including the chain link, which recovery compares bit-for-bit — and
// the lenient header inspector must agree with the strict decoder on
// everything it reports.
func FuzzDeltaSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(&snapshot{kind: snapKindDelta, watermark: 100, nextOID: 10,
		parentWatermark: 40, parentCRC: 0xdeadbeef, recs: fuzzSeedRecords()}))
	f.Add(encodeSnapshot(&snapshot{kind: snapKindDelta, watermark: 1, nextOID: 1,
		parentWatermark: 1, parentCRC: 0}))
	f.Add(encodeSnapshot(&snapshot{kind: snapKindFull, watermark: 9, nextOID: 4,
		cards: map[string]uint64{"stock": 3, "order": 0}, recs: fuzzSeedRecords()}))
	valid := encodeSnapshot(&snapshot{kind: snapKindDelta, watermark: 55, nextOID: 5,
		parentWatermark: 54, parentCRC: 7, recs: fuzzSeedRecords()})
	f.Add(valid[:len(valid)/2]) // truncated mid-frame
	badLink := append([]byte(nil), valid...)
	badLink[len(snapshotMagic)+3] ^= 0x55 // perturb the chain link
	f.Add(badLink)
	f.Fuzz(func(t *testing.T, buf []byte) {
		sn, err := decodeSnapshot(buf)
		if err != nil {
			return
		}
		if sn.kind != snapKindFull && sn.kind != snapKindDelta {
			t.Fatalf("decoder accepted kind %d", sn.kind)
		}
		again, err := decodeSnapshot(encodeSnapshot(sn))
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if again.kind != sn.kind || again.watermark != sn.watermark ||
			again.parentWatermark != sn.parentWatermark || again.parentCRC != sn.parentCRC ||
			len(again.recs) != len(sn.recs) {
			t.Fatal("round trip changed delta header or chain link")
		}
		info, err := inspectSnapshot(buf)
		if err != nil {
			t.Fatalf("inspector refused a file the decoder accepted: %v", err)
		}
		kind := map[byte]string{snapKindFull: "full", snapKindDelta: "delta"}[sn.kind]
		if info.Kind != kind || info.Watermark != uint64(sn.watermark) ||
			info.NextOID != uint64(sn.nextOID) ||
			info.ParentWatermark != uint64(sn.parentWatermark) || info.ParentCRC != sn.parentCRC ||
			!maps.Equal(info.ClassCards, sn.cards) || info.Records != len(sn.recs) ||
			info.CRC != sn.crc || !info.CRCOK {
			t.Fatalf("inspector %+v disagrees with decoder %+v", info, sn)
		}
	})
}
