package ipc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datum"
)

func TestMessageRoundTrip(t *testing.T) {
	body, err := EncodeBody(CreateReq{Txn: 7, Class: "Stock",
		Attrs: map[string]datum.Value{"price": datum.Float(50)}})
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{ID: 42, Kind: KindRequest, Op: OpCreate, Body: body}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Kind != KindRequest || got.Op != OpCreate {
		t.Fatalf("got %+v", got)
	}
	var req CreateReq
	if err := DecodeBody(got, &req); err != nil {
		t.Fatal(err)
	}
	if req.Txn != 7 || req.Class != "Stock" || req.Attrs["price"].AsFloat() != 50 {
		t.Fatalf("req = %+v", req)
	}
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(1); i <= 5; i++ {
		Write(&buf, &Message{ID: i, Kind: KindReply})
	}
	for i := uint64(1); i <= 5; i++ {
		m, err := Read(&buf)
		if err != nil || m.ID != i {
			t.Fatalf("message %d: %v %v", i, m, err)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("EOF expected, got %v", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, &Message{ID: 1, Kind: KindReply})
	data := buf.Bytes()
	for i := 1; i < len(data); i++ {
		if _, err := Read(bytes.NewReader(data[:i])); err == nil {
			t.Fatalf("%d-byte prefix should fail", i)
		}
	}
}

func TestReadOversizedFrame(t *testing.T) {
	hdr := []byte{frameMessage, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:], MaxFrame+1)
	if _, err := Read(bytes.NewReader(hdr)); err == nil ||
		!strings.Contains(err.Error(), "too large") {
		t.Fatalf("oversized frame: %v", err)
	}
}

func TestReadGarbageEnvelope(t *testing.T) {
	for _, payload := range []string{"not an envelope", "", "\x01\x00\x01\x02\x00\x00"} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, frameMessage, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "bad message") {
			t.Fatalf("garbage payload %q: %v", payload, err)
		}
	}
}

// TestEnvelopeLayout pins a message's binary envelope byte for byte:
// uvarint id, kind byte, op byte (0 and the name for an operation
// outside the table), begin flag, uvarint txn, uvarint-prefixed error,
// then the body.
func TestEnvelopeLayout(t *testing.T) {
	for _, tc := range []struct {
		m    Message
		want []byte
	}{
		{Message{ID: 300, Kind: KindRequest, Op: OpGet, Begin: true, Body: []byte{7, 9}},
			[]byte{0xac, 0x02, 0, 10, 1, 0, 0, 7, 9}},
		{Message{ID: 1, Kind: KindReply, Op: OpGet, Txn: 5, Err: "no"},
			[]byte{1, 1, 10, 0, 5, 2, 'n', 'o'}},
		{Message{ID: 2, Kind: KindAppCall, Op: "ping"},
			[]byte{2, 2, 0, 4, 'p', 'i', 'n', 'g', 0, 0, 0}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, &tc.m); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(bytes.NewReader(buf.Bytes()))
		if err != nil || typ != frameMessage || !bytes.Equal(payload, tc.want) {
			t.Fatalf("%+v: payload %x (type %d, %v), want %x", tc.m, payload, typ, err, tc.want)
		}
		got, err := Read(&buf)
		if err != nil || !reflect.DeepEqual(*got, tc.m) {
			t.Fatalf("read back %+v (%v), want %+v", got, err, tc.m)
		}
	}
	if err := Write(io.Discard, &Message{Kind: "other"}); err == nil {
		t.Fatal("a message of an unknown kind was written")
	}
}

// TestFrameLayout pins the one wire frame, byte for byte: type,
// big-endian payload length, payload, big-endian CRC-32 (IEEE) of the
// payload — the layout the replication stream has always used.
func TestFrameLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 6, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	want := []byte{6, 0, 0, 0, 3, 'a', 'b', 'c', 0x35, 0x24, 0x41, 0xc2}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame = %x, want %x", buf.Bytes(), want)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != 6 || string(payload) != "abc" {
		t.Fatalf("ReadFrame = %d %q %v", typ, payload, err)
	}
}

// TestReadCorruptFrame: flipping any payload or CRC byte of a message
// frame makes Read fail, and so does a frame of another type.
func TestReadCorruptFrame(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, &Message{ID: 1, Kind: KindReply, Op: OpGet, Err: "x"})
	frame := buf.Bytes()
	for i := frameHeader; i < len(frame); i++ {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x01
		if _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "crc") {
			t.Fatalf("byte %d flipped: err = %v", i, err)
		}
	}
	buf.Reset()
	WriteFrame(&buf, 1, []byte("{}"))
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "frame type") {
		t.Fatalf("foreign frame type: err = %v", err)
	}
}

// TestConnCallsBothWays: the two ends of one connection call each
// other concurrently — requests one way, application calls the other —
// and every reply reaches its own caller; a remote error, a timeout
// and a close fail only the calls they concern.
func TestConnCallsBothWays(t *testing.T) {
	a, b := net.Pipe()
	hung := make(chan struct{}, 1)
	double := func(c **Conn) func(*Message) {
		return func(m *Message) {
			switch m.Op {
			case "hang":
				hung <- struct{}{}
			case "fail":
				(*c).Reply(m, nil, errors.New("boom"))
			default:
				var req GetReq
				err := DecodeBody(m, &req)
				(*c).Reply(m, CreateRep{OID: 2 * req.OID}, err)
			}
		}
	}
	var app, srv *Conn
	app = NewConn(a, KindRequest, double(&app), nil)
	srv = NewConn(b, KindAppCall, double(&srv), nil)
	go app.Run()
	srvDone := make(chan struct{})
	go func() {
		srv.Run()
		close(srvDone)
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, c := range []*Conn{app, srv} {
			wg.Add(1)
			go func(c *Conn, i int) {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					oid := uint64(i*1000 + j)
					var rep CreateRep
					if err := c.Call(OpGet, GetReq{OID: oid}, &rep, time.Minute); err != nil || rep.OID != 2*oid {
						t.Errorf("call %d: got %d, %v", oid, rep.OID, err)
						return
					}
				}
			}(c, i)
		}
	}
	wg.Wait()

	if err := srv.Call("fail", nil, nil, 0); err == nil || err.Error() != "boom" {
		t.Fatalf("remote error: %v", err)
	}
	if err := srv.Call("hang", nil, nil, 10*time.Millisecond); err == nil || !strings.Contains(err.Error(), "no reply") {
		t.Fatalf("timeout: %v", err)
	}
	<-hung
	pending := make(chan error, 1)
	go func() { pending <- app.Call("hang", nil, nil, 0) }()
	<-hung // the call reached the peer and waits for a reply
	app.Close()
	if err := <-pending; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending call on close: %v", err)
	}
	<-srvDone // the peer's read loop saw the close and closed its end
	if err := srv.Call(OpGet, nil, nil, time.Minute); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after the peer closed: %v", err)
	}
}

// FuzzIPCRead drives the message decoder over arbitrary bytes: no
// panic, no allocation beyond the header's bound, and every message it
// accepts re-encodes to a frame that reads back and re-encodes to the
// same bytes.
func FuzzIPCRead(f *testing.F) {
	var seed bytes.Buffer
	body, _ := EncodeBody(GetReq{Txn: 1, OID: 2})
	Write(&seed, &Message{ID: 1, Kind: KindRequest, Op: OpGet, Body: body})
	Write(&seed, &Message{ID: 1, Kind: KindReply, Op: OpGet, Err: "boom"})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{frameMessage, 0xff, 0xff, 0xff, 0xff})
	seed.Reset()
	body, _ = EncodeBody(ModifyReq{OID: 9, Attrs: map[string]datum.Value{"p": datum.Float(math.NaN())}})
	Write(&seed, &Message{ID: 1 << 40, Kind: KindRequest, Op: OpModify, Begin: true, Body: body})
	Write(&seed, &Message{ID: 1 << 40, Kind: KindReply, Op: OpModify, Txn: 77})
	body, _ = EncodeBody(AppCallBody{Op: "display", Args: map[string]datum.Value{"s": datum.Str("a\xffb")}})
	Write(&seed, &Message{ID: 3, Kind: KindAppCall, Op: "display", Body: body})
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 1<<10; i++ {
			m, err := Read(r)
			if err != nil {
				return
			}
			var once, twice bytes.Buffer
			if err := Write(&once, m); err != nil {
				t.Fatalf("re-encode %+v: %v", m, err)
			}
			m2, err := Read(bytes.NewReader(once.Bytes()))
			if err != nil {
				t.Fatalf("read back %x: %v", once.Bytes(), err)
			}
			if err := Write(&twice, m2); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("round trip: %x then %x (%v)", once.Bytes(), twice.Bytes(), err)
			}
		}
	})
}

func TestDecodeEmptyBody(t *testing.T) {
	var req TxnRef
	if err := DecodeBody(&Message{}, &req); err != nil {
		t.Fatal(err)
	}
	if req.Txn != 0 {
		t.Fatal("empty body should leave zero value")
	}
}
