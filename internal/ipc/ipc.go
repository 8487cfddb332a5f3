// Package ipc is the wire layer of every stream connection in the
// system: application programs to the HiPAC server, and a primary to
// its read replicas (internal/repl). Both speak one frame format (all
// integers big-endian):
//
//	byte    type
//	uint32  payload length, at most MaxFrame
//	[]byte  payload
//	uint32  CRC-32 (IEEE) of the payload
//
// The application protocol sends each Message in a frame of one type;
// the replication stream uses types of its own. A Message's payload is
// its binary envelope (uvarints as in encoding/binary):
//
//	uvarint  id
//	byte     kind, an index into one table (request, reply, call, callrep)
//	byte     op, an index into one table; 0 is followed by the name
//	         (uvarint length, bytes), for an application's own operations
//	byte     begin flag, 0 or 1
//	uvarint  txn: on a reply, the transaction the request's begin flag began
//	uvarint  error length, then the error string
//	[]byte   body: the rest of the payload
//
// EncodeBody and DecodeBody choose a body's codec by its Go type. Every
// body that carries datum values or sits on a transaction's path — get,
// create, modify, delete, commit/abort/child, query, explain, signal,
// fire, and the application call and reply — is binary: uvarint
// integers, length-prefixed strings, and datum's own write-ahead-log
// codec for values and attribute maps. That codec carries every value
// the engine stores (NaN, infinities, negative zero, strings that are
// not UTF-8), which JSON cannot, and costs a fraction of it on the
// per-operation path. Bodies that carry definitions and diagnostics
// (classes, rules, stats, trace, graph, replication status) stay JSON;
// none of them may hold a datum value, which has no JSON form.
//
// The same application connection carries calls in both directions —
// applications invoke DBMS operations, and the DBMS sends application
// requests back when rule actions name application operations (the
// §4.1 role reversal: "the same underlying operating system facility
// can be used to reverse the direction in which requests and replies
// are transmitted"). Conn is that facility, used alike by both ends.
package ipc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rule"
)

// MaxFrame bounds one frame's payload (32 MiB). A header naming a
// larger length is rejected before anything is allocated; replication
// file frames are chunked well below it.
const MaxFrame = 32 << 20

// frameHeader is the type byte and the payload length.
const frameHeader = 5

// frameMessage is the frame type of a Message.
const frameMessage byte = 'M'

var errFrameTooLarge = errors.New("ipc: frame too large")

// Message kinds.
const (
	// KindRequest is a client-to-server operation request.
	KindRequest = "req"
	// KindReply answers a request.
	KindReply = "rep"
	// KindAppCall is a server-to-client application request (a rule
	// action's "request" step).
	KindAppCall = "call"
	// KindAppReply answers an application request.
	KindAppReply = "callrep"
)

// kinds is the table of kind codes: a kind's wire byte is its index.
var kinds = [...]string{KindRequest, KindReply, KindAppCall, KindAppReply}

// Message is one application-protocol message, carried in one frame.
type Message struct {
	ID   uint64
	Kind string
	Op   string
	// Begin marks a request whose transaction is not begun yet: the
	// server begins a top-level transaction and runs the request in it.
	Begin bool
	// Txn, on the reply to a Begin request, names the transaction
	// begun — also when the request failed, for the transaction
	// outlives the error.
	Txn  uint64
	Err  string
	Body []byte
}

// framePool recycles frame buffers across writes. Buffers that grew
// past maxPooledFrame are dropped rather than pooled so one huge frame
// does not pin its allocation forever.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledFrame = 64 << 10

// newFrame starts a frame of type typ in a pooled buffer; the caller
// appends the payload and hands the buffer to sendFrame.
func newFrame(typ byte) *bytes.Buffer {
	buf := framePool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write([]byte{typ, 0, 0, 0, 0}) // length patched by sendFrame
	return buf
}

// sendFrame completes the frame in buf — length and CRC — and writes
// it with a single Write call, so a frame costs one syscall and, on a
// shared connection, cannot interleave with another writer's.
func sendFrame(w io.Writer, buf *bytes.Buffer) error {
	defer func() {
		if buf.Cap() <= maxPooledFrame {
			framePool.Put(buf)
		}
	}()
	frame := buf.Bytes()
	n := len(frame) - frameHeader
	if n > MaxFrame {
		return fmt.Errorf("%w (%d bytes)", errFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(frame[1:frameHeader], uint32(n))
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(frame[frameHeader:]))
	buf.Write(crc[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteFrame writes payload as one frame of type typ.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	buf := newFrame(typ)
	buf.Grow(len(payload) + 4)
	buf.Write(payload)
	return sendFrame(w, buf)
}

// ReadFrame reads one frame, verifying its length bound and checksum.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, n := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("%w (%d bytes)", errFrameTooLarge, n)
	}
	buf := make([]byte, int(n)+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	payload := buf[:n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[n:]) {
		return 0, nil, fmt.Errorf("ipc: bad frame crc (type %d)", typ)
	}
	return typ, payload, nil
}

// Write writes one message as a frame.
func Write(w io.Writer, m *Message) error {
	_, err := writeMessage(w, m)
	return err
}

// writeMessage writes m and returns its payload size.
func writeMessage(w io.Writer, m *Message) (int, error) {
	kind := kindCode(m.Kind)
	if kind < 0 {
		return 0, fmt.Errorf("ipc: unknown message kind %q", m.Kind)
	}
	buf := newFrame(frameMessage)
	b := binary.AppendUvarint(buf.AvailableBuffer(), m.ID)
	op := opCodes[m.Op]
	b = append(b, byte(kind), op)
	if op == 0 {
		b = appendString(b, m.Op)
	}
	var begin byte
	if m.Begin {
		begin = 1
	}
	b = binary.AppendUvarint(append(b, begin), m.Txn)
	buf.Write(appendString(b, m.Err))
	buf.Write(m.Body)
	n := buf.Len() - frameHeader
	return n, sendFrame(w, buf)
}

// kindCode returns a kind's wire byte, or -1 for an unknown kind.
func kindCode(kind string) int {
	for i, k := range kinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// Read reads one message frame.
func Read(r io.Reader) (*Message, error) {
	m, _, err := readMessage(r)
	return m, err
}

// readMessage reads one message and returns its payload size.
func readMessage(r io.Reader) (*Message, int, error) {
	typ, payload, err := ReadFrame(r)
	if err != nil {
		return nil, 0, err
	}
	if typ != frameMessage {
		return nil, 0, fmt.Errorf("ipc: unexpected frame type %d", typ)
	}
	d := decoder{b: payload}
	m := &Message{ID: d.uint()}
	if k := d.u8(); int(k) < len(kinds) {
		m.Kind = kinds[k]
	} else {
		d.fail("unknown message kind %d", k)
	}
	switch op := d.u8(); {
	case op == 0:
		m.Op = d.str()
	case int(op) < len(ops):
		m.Op = ops[op]
	default:
		d.fail("unknown operation %d", op)
	}
	switch begin := d.u8(); begin {
	case 0, 1:
		m.Begin = begin == 1
	default:
		d.fail("bad begin flag %d", begin)
	}
	m.Txn = d.uint()
	m.Err = d.str()
	if d.err != nil {
		return nil, 0, fmt.Errorf("ipc: bad message: %w", d.err)
	}
	if len(d.b) > 0 {
		m.Body = d.b
	}
	return m, len(payload), nil
}

// EncodeBody encodes a payload struct into a message body: binary for
// the types listed in the package doc, JSON for the rest.
func EncodeBody(v any) ([]byte, error) {
	if b, ok := appendBody(make([]byte, 0, 64), v); ok {
		return b, nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("ipc: encode body: %w", err)
	}
	return raw, nil
}

// DecodeBody decodes a message body into the payload struct v points
// to, with the codec EncodeBody chose for that type. An empty body
// leaves v as it was.
func DecodeBody(m *Message, v any) error {
	if len(m.Body) == 0 {
		return nil
	}
	ok, err := decodeBody(m.Body, v)
	if !ok {
		err = json.Unmarshal(m.Body, v)
	}
	if err != nil {
		return fmt.Errorf("ipc: decode %s body: %w", m.Op, err)
	}
	return nil
}

// Operation names carried in Message.Op.
const (
	OpChild       = "child"
	OpCommit      = "commit"
	OpAbort       = "abort"
	OpDefineClass = "defineClass"
	OpDropClass   = "dropClass"
	OpClasses     = "classes"
	OpCreate      = "create"
	OpModify      = "modify"
	OpDelete      = "delete"
	OpGet         = "get"
	OpQuery       = "query"
	OpExplain     = "explain"
	OpDefineEvent = "defineEvent"
	OpSignalEvent = "signalEvent"
	OpCreateRule  = "createRule"
	OpUpdateRule  = "updateRule"
	OpDeleteRule  = "deleteRule"
	OpEnableRule  = "enableRule"
	OpDisableRule = "disableRule"
	OpFireRule    = "fireRule"
	OpListRules   = "listRules"
	OpServe       = "serve"
	OpStats       = "stats"
	OpTrace       = "trace"
	OpGraph       = "graph"
	OpCheckpoint  = "checkpoint"
	OpReplStatus  = "replStatus"
	OpPromote     = "promote"
)

// ops is the table of operation codes: an operation's wire byte is its
// index. Code 0 is reserved for names outside the table.
var ops = [...]string{"",
	OpChild, OpCommit, OpAbort, OpDefineClass, OpDropClass, OpClasses,
	OpCreate, OpModify, OpDelete, OpGet, OpQuery, OpExplain,
	OpDefineEvent, OpSignalEvent, OpCreateRule, OpUpdateRule,
	OpDeleteRule, OpEnableRule, OpDisableRule, OpFireRule, OpListRules,
	OpServe, OpStats, OpTrace, OpGraph, OpCheckpoint, OpReplStatus,
	OpPromote,
}

var opCodes = func() map[string]byte {
	m := make(map[string]byte, len(ops))
	for i, op := range ops[1:] {
		m[op] = byte(i + 1)
	}
	return m
}()

// TxnRef names a transaction in requests.
type TxnRef struct {
	Txn uint64
}

// BeginRep returns the new transaction id (of a child).
type BeginRep = TxnRef

// DefineClassReq carries a class definition.
type DefineClassReq struct {
	Txn   uint64       `json:"txn"`
	Class object.Class `json:"class"`
}

// DropClassReq names a class to drop.
type DropClassReq struct {
	Txn  uint64 `json:"txn"`
	Name string `json:"name"`
}

// ClassesRep lists class definitions.
type ClassesRep struct {
	Classes []object.Class `json:"classes"`
}

// CreateReq creates an object.
type CreateReq struct {
	Txn   uint64
	Class string
	Attrs map[string]datum.Value
}

// CreateRep returns the new object's OID.
type CreateRep struct {
	OID uint64
}

// ModifyReq updates an object.
type ModifyReq struct {
	Txn   uint64
	OID   uint64
	Attrs map[string]datum.Value
}

// GetReq fetches an object.
type GetReq struct {
	Txn uint64
	OID uint64
}

// DeleteReq deletes an object.
type DeleteReq = GetReq

// GetRep returns an object's state.
type GetRep struct {
	OID   uint64
	Class string
	Attrs map[string]datum.Value
}

// QueryReq evaluates a select statement.
type QueryReq struct {
	Txn  uint64
	Src  string
	Args map[string]datum.Value
}

// QueryRep returns a result set.
type QueryRep struct {
	Columns []string
	Rows    [][]datum.Value
}

// ExplainReq asks for the physical plan of a select statement; it is
// planned, not executed.
type ExplainReq = QueryReq

// ExplainRep returns the rendered plan.
type ExplainRep struct {
	Text string `json:"text"`
}

// DefineEventReq defines an external event.
type DefineEventReq struct {
	Name   string   `json:"name"`
	Params []string `json:"params,omitempty"`
}

// SignalEventReq signals an external event. Txn 0 means outside any
// transaction.
type SignalEventReq struct {
	Txn  uint64
	Name string
	Args map[string]datum.Value
}

// FireRuleReq fires a rule manually; Txn 0 means outside any
// transaction.
type FireRuleReq = SignalEventReq

// CreateRuleReq carries a rule definition.
type CreateRuleReq struct {
	Def rule.Def `json:"def"`
}

// RuleNameReq names a rule (delete/enable/disable).
type RuleNameReq struct {
	Name string `json:"name"`
}

// RuleInfo describes one registered rule.
type RuleInfo struct {
	Name    string `json:"name"`
	Event   string `json:"event"`
	EC      string `json:"ec"`
	CA      string `json:"ca"`
	Enabled bool   `json:"enabled"`
}

// ListRulesRep lists registered rules.
type ListRulesRep struct {
	Rules []RuleInfo `json:"rules"`
}

// ServeReq declares the application operations this connection
// serves; the server routes matching rule-action requests to it.
type ServeReq struct {
	Ops []string `json:"ops"`
}

// StatsRep carries the engine counters plus the observability
// snapshot (histograms and trace-ring totals). Engine stays a raw
// message so the protocol does not pin the engine's Stats layout.
type StatsRep struct {
	Engine json.RawMessage `json:"engine"`
	Obs    obs.Snapshot    `json:"obs"`
}

// CheckpointRep reports the outcome of a manually triggered fuzzy
// checkpoint.
type CheckpointRep struct {
	// Kind is "full" or "delta" — which chain element the checkpoint
	// wrote.
	Kind string `json:"kind"`
	// Records is the number of records in that element.
	Records int `json:"records"`
	// Reclaimed is the number of WAL bytes truncated away.
	Reclaimed uint64 `json:"reclaimed"`
}

// ReplStatusRep describes the replication state of the answering
// node. A primary reports its durable frontier and attached follower
// count; a replica reports its applied frontier, the primary frontier
// it last heard, and its catchup counters.
type ReplStatusRep struct {
	// Role is "primary", "replica", or "promoted".
	Role string `json:"role"`
	// Primary is the upstream address (replica only).
	Primary string `json:"primary,omitempty"`
	// State is the replica stream state: connecting, bootstrapping, or
	// streaming.
	State string `json:"state,omitempty"`
	// AppliedLSN is the replica's applied frontier.
	AppliedLSN uint64 `json:"appliedLsn,omitempty"`
	// FlushedLSN is the durable WAL frontier: the node's own on a
	// primary, the last one heard from upstream on a replica.
	FlushedLSN uint64 `json:"flushedLsn,omitempty"`
	// LagBytes is FlushedLSN - AppliedLSN on a replica (0 when caught
	// up or unknown).
	LagBytes uint64 `json:"lagBytes,omitempty"`
	// LagNanos is the last observed send-to-apply latency.
	LagNanos int64 `json:"lagNanos,omitempty"`
	// Generation counts bootstrap generations of the replica's store.
	Generation int `json:"generation,omitempty"`
	// Bootstraps counts chain ships (resyncs served, on a primary).
	Bootstraps uint64 `json:"bootstraps,omitempty"`
	// Reconnects counts stream reconnection attempts.
	Reconnects uint64 `json:"reconnects,omitempty"`
	// Batches counts replicated commit batches applied (shipped, on a
	// primary).
	Batches uint64 `json:"batches,omitempty"`
	// Connections is the number of attached followers (primary only).
	Connections int `json:"connections,omitempty"`
}

// PromoteRep reports the applied frontier at which a replica was
// promoted to a writable store.
type PromoteRep struct {
	AppliedLSN uint64 `json:"appliedLsn"`
}

// TraceReq asks for the newest finished firing trees (Last <= 0 means
// all retained).
type TraceReq struct {
	Last int `json:"last"`
}

// TraceRep returns firing trees, newest first.
type TraceRep struct {
	Traces []obs.SpanSnapshot `json:"traces"`
}

// GraphNode describes one condition-graph node (rule-base tooling).
type GraphNode struct {
	Query string `json:"query"`
	Refs  int    `json:"refs"`
	// Guards are the query's event-only conjuncts, tested at signal
	// time before a firing is scheduled.
	Guards []string `json:"guards,omitempty"`
}

// GraphRep lists the condition graph.
type GraphRep struct {
	Nodes []GraphNode `json:"nodes"`
}

// AppCallBody is the body of a server-to-client application request
// and of an in-process dispatch.
type AppCallBody struct {
	Op   string
	Args map[string]datum.Value
}

// AppReplyBody answers an application request.
type AppReplyBody struct {
	Reply map[string]datum.Value
}
