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
// The application protocol sends each Message as JSON in a frame of
// one type; the replication stream uses types of its own with binary
// payloads.
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

// frameMessage is the frame type of a JSON-encoded Message.
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

// Message is one application-protocol message, carried as JSON in one
// frame.
type Message struct {
	ID   uint64          `json:"id"`
	Kind string          `json:"kind"`
	Op   string          `json:"op,omitempty"`
	Err  string          `json:"err,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
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

// Write writes one message as a JSON frame.
func Write(w io.Writer, m *Message) error {
	buf := newFrame(frameMessage)
	if err := json.NewEncoder(buf).Encode(m); err != nil {
		return fmt.Errorf("ipc: marshal: %w", err) // buf is dropped, not pooled
	}
	buf.Truncate(buf.Len() - 1) // Encoder's newline is not part of the payload
	return sendFrame(w, buf)
}

// Read reads one message frame.
func Read(r io.Reader) (*Message, error) {
	typ, payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if typ != frameMessage {
		return nil, fmt.Errorf("ipc: unexpected frame type %d", typ)
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("ipc: unmarshal: %w", err)
	}
	return &m, nil
}

// EncodeBody marshals a payload struct into a message body.
func EncodeBody(v any) (json.RawMessage, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("ipc: encode body: %w", err)
	}
	return raw, nil
}

// DecodeBody unmarshals a message body into a payload struct.
func DecodeBody(m *Message, v any) error {
	if len(m.Body) == 0 {
		return nil
	}
	if err := json.Unmarshal(m.Body, v); err != nil {
		return fmt.Errorf("ipc: decode %s body: %w", m.Op, err)
	}
	return nil
}

// Operation names carried in Message.Op.
const (
	OpBegin       = "begin"
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

// TxnRef names a transaction in requests.
type TxnRef struct {
	Txn uint64 `json:"txn"`
}

// BeginRep returns the new transaction id.
type BeginRep struct {
	Txn uint64 `json:"txn"`
}

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
	Txn   uint64                 `json:"txn"`
	Class string                 `json:"class"`
	Attrs map[string]datum.Value `json:"attrs"`
}

// CreateRep returns the new object's OID.
type CreateRep struct {
	OID uint64 `json:"oid"`
}

// ModifyReq updates an object.
type ModifyReq struct {
	Txn   uint64                 `json:"txn"`
	OID   uint64                 `json:"oid"`
	Attrs map[string]datum.Value `json:"attrs"`
}

// DeleteReq deletes an object.
type DeleteReq struct {
	Txn uint64 `json:"txn"`
	OID uint64 `json:"oid"`
}

// GetReq fetches an object.
type GetReq struct {
	Txn uint64 `json:"txn"`
	OID uint64 `json:"oid"`
}

// GetRep returns an object's state.
type GetRep struct {
	OID   uint64                 `json:"oid"`
	Class string                 `json:"class"`
	Attrs map[string]datum.Value `json:"attrs"`
}

// QueryReq evaluates a select statement.
type QueryReq struct {
	Txn  uint64                 `json:"txn"`
	Src  string                 `json:"src"`
	Args map[string]datum.Value `json:"args,omitempty"`
}

// QueryRep returns a result set.
type QueryRep struct {
	Columns []string        `json:"columns"`
	Rows    [][]datum.Value `json:"rows"`
}

// ExplainReq asks for the physical plan of a select statement; it is
// planned, not executed. Reuses QueryReq's shape.
type ExplainReq struct {
	Txn  uint64                 `json:"txn"`
	Src  string                 `json:"src"`
	Args map[string]datum.Value `json:"args,omitempty"`
}

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
	Txn  uint64                 `json:"txn"`
	Name string                 `json:"name"`
	Args map[string]datum.Value `json:"args,omitempty"`
}

// CreateRuleReq carries a rule definition.
type CreateRuleReq struct {
	Def rule.Def `json:"def"`
}

// RuleNameReq names a rule (delete/enable/disable).
type RuleNameReq struct {
	Name string `json:"name"`
}

// FireRuleReq fires a rule manually.
type FireRuleReq struct {
	Txn  uint64                 `json:"txn"`
	Name string                 `json:"name"`
	Args map[string]datum.Value `json:"args,omitempty"`
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
	Query     string `json:"query"`
	Refs      int    `json:"refs"`
	EventFree bool   `json:"eventFree"`
	Cached    bool   `json:"cached"`
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
	Op   string                 `json:"op"`
	Args map[string]datum.Value `json:"args,omitempty"`
}

// AppReplyBody answers an application request.
type AppReplyBody struct {
	Reply map[string]datum.Value `json:"reply,omitempty"`
}
