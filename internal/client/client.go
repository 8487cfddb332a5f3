// Package client is the application-program side of the HiPAC IPC
// protocol: the four interface modules of Figure 4.1 as a Go API. An
// application connects, performs data and transaction operations,
// defines and signals events, and may register itself as the server
// of application operations — which the DBMS then invokes when rule
// actions request them.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/datum"
	"repro/internal/ipc"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rule"
)

// Handler serves one application operation invoked by the DBMS.
type Handler func(args map[string]datum.Value) (map[string]datum.Value, error)

// Client is a connection to a HiPAC server. Calls on a closed client,
// and calls in flight when it closes, fail with ipc.ErrClosed.
type Client struct {
	conn *ipc.Conn

	mu       sync.Mutex
	handlers map[string]Handler
}

// Dial connects to a HiPAC server at a TCP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{handlers: map[string]Handler{}}
	c.conn = ipc.NewConn(conn, ipc.KindRequest, c.serveCall, nil)
	go c.conn.Run() // returns once the connection closes
	return c
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// serveCall answers the DBMS calling one of this program's operations.
func (c *Client) serveCall(m *ipc.Message) {
	var body ipc.AppCallBody
	if err := ipc.DecodeBody(m, &body); err != nil {
		c.conn.Reply(m, nil, err)
		return
	}
	c.mu.Lock()
	h := c.handlers[body.Op]
	c.mu.Unlock()
	if h == nil {
		c.conn.Reply(m, nil, fmt.Errorf("client: no handler for %q", body.Op))
		return
	}
	reply, err := h(body.Args)
	c.conn.Reply(m, ipc.AppReplyBody{Reply: reply}, err)
}

// call performs one request/reply round trip.
func (c *Client) call(op string, reqBody, repBody any) error {
	return c.conn.Call(op, reqBody, repBody, 0)
}

// --- operations on transactions ---

// errEnded fails a request in a transaction that was committed or
// aborted before any request began it on the server.
var errEnded = errors.New("client: transaction already ended")

// Txn is a remote transaction handle. The server begins the
// transaction when the first request sent in it arrives, so Begin costs
// no round trip; an error beginning it (a replica that has no store
// yet, say) is that request's error.
type Txn struct {
	c *Client
	// ID is the server's id for the transaction: 0 until the reply to
	// the first request sent in it.
	ID uint64

	mu    sync.Mutex // held across the request that begins the transaction
	ended bool       // committed or aborted before it was begun
}

// Begin starts a top-level transaction. Nothing is sent: the
// transaction begins on the server with its first request.
func (c *Client) Begin() (*Txn, error) {
	if c.conn.Closed() {
		return nil, ipc.ErrClosed
	}
	return &Txn{c: c}, nil
}

// call sends one request in the transaction, its body built by req for
// the transaction's id. The first request carries the begin flag, and
// its reply names the transaction the server began.
func (t *Txn) call(op string, rep any, req func(id uint64) any) error {
	t.mu.Lock()
	if id := t.ID; id != 0 {
		t.mu.Unlock()
		return t.c.call(op, req(id), rep)
	}
	defer t.mu.Unlock()
	if t.ended {
		return errEnded
	}
	id, err := t.c.conn.Begin(op, req(0), rep)
	t.ID = id
	return err
}

// Child creates a nested transaction; the parent is suspended until
// it terminates. A parent not begun yet begins with it.
func (t *Txn) Child() (*Txn, error) {
	var rep ipc.BeginRep
	if err := t.call(ipc.OpChild, &rep, func(id uint64) any { return ipc.TxnRef{Txn: id} }); err != nil {
		return nil, err
	}
	return &Txn{c: t.c, ID: rep.Txn}, nil
}

// Commit commits the transaction (processing deferred rule firings
// first, per the execution model).
func (t *Txn) Commit() error { return t.end(ipc.OpCommit) }

// Abort aborts the transaction, discarding its effects.
func (t *Txn) Abort() error { return t.end(ipc.OpAbort) }

// end commits or aborts the transaction: on the server once a request
// has begun it there, here when none has.
func (t *Txn) end(op string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.ID != 0:
		return t.c.call(op, ipc.TxnRef{Txn: t.ID}, nil)
	case t.ended:
		return errEnded
	case t.c.conn.Closed():
		return ipc.ErrClosed
	}
	t.ended = true
	return nil
}

// --- operations on data ---

// DefineClass defines a class.
func (c *Client) DefineClass(tx *Txn, cls object.Class) error {
	return tx.call(ipc.OpDefineClass, nil, func(id uint64) any { return ipc.DefineClassReq{Txn: id, Class: cls} })
}

// DropClass drops a class.
func (c *Client) DropClass(tx *Txn, name string) error {
	return tx.call(ipc.OpDropClass, nil, func(id uint64) any { return ipc.DropClassReq{Txn: id, Name: name} })
}

// Classes lists user-defined classes.
func (c *Client) Classes(tx *Txn) ([]object.Class, error) {
	var rep ipc.ClassesRep
	if err := tx.call(ipc.OpClasses, &rep, func(id uint64) any { return ipc.TxnRef{Txn: id} }); err != nil {
		return nil, err
	}
	return rep.Classes, nil
}

// Create creates an object, returning its OID.
func (c *Client) Create(tx *Txn, class string, attrs map[string]datum.Value) (datum.OID, error) {
	var rep ipc.CreateRep
	if err := tx.call(ipc.OpCreate, &rep, func(id uint64) any { return ipc.CreateReq{Txn: id, Class: class, Attrs: attrs} }); err != nil {
		return 0, err
	}
	return datum.OID(rep.OID), nil
}

// Modify updates an object's attributes.
func (c *Client) Modify(tx *Txn, oid datum.OID, attrs map[string]datum.Value) error {
	return tx.call(ipc.OpModify, nil, func(id uint64) any { return ipc.ModifyReq{Txn: id, OID: uint64(oid), Attrs: attrs} })
}

// Delete removes an object.
func (c *Client) Delete(tx *Txn, oid datum.OID) error {
	return tx.call(ipc.OpDelete, nil, func(id uint64) any { return ipc.DeleteReq{Txn: id, OID: uint64(oid)} })
}

// Object is a fetched object.
type Object struct {
	OID   datum.OID
	Class string
	Attrs map[string]datum.Value
}

// Get fetches an object.
func (c *Client) Get(tx *Txn, oid datum.OID) (Object, error) {
	var rep ipc.GetRep
	if err := tx.call(ipc.OpGet, &rep, func(id uint64) any { return ipc.GetReq{Txn: id, OID: uint64(oid)} }); err != nil {
		return Object{}, err
	}
	return Object{OID: datum.OID(rep.OID), Class: rep.Class, Attrs: rep.Attrs}, nil
}

// Result is a query result.
type Result struct {
	Columns []string
	Rows    [][]datum.Value
}

// Query evaluates a select statement.
func (c *Client) Query(tx *Txn, src string, args map[string]datum.Value) (*Result, error) {
	var rep ipc.QueryRep
	if err := tx.call(ipc.OpQuery, &rep, func(id uint64) any { return ipc.QueryReq{Txn: id, Src: src, Args: args} }); err != nil {
		return nil, err
	}
	return &Result{Columns: rep.Columns, Rows: rep.Rows}, nil
}

// Explain returns the physical plan the server's cost-based planner
// chooses for a select statement, as text; nothing is executed.
func (c *Client) Explain(tx *Txn, src string, args map[string]datum.Value) (string, error) {
	var rep ipc.ExplainRep
	if err := tx.call(ipc.OpExplain, &rep, func(id uint64) any { return ipc.ExplainReq{Txn: id, Src: src, Args: args} }); err != nil {
		return "", err
	}
	return rep.Text, nil
}

// --- operations on events ---

// DefineEvent defines an application-specific event (§4.1).
func (c *Client) DefineEvent(name string, params ...string) error {
	return c.call(ipc.OpDefineEvent, ipc.DefineEventReq{Name: name, Params: params}, nil)
}

// SignalEvent signals an application-specific event. tx may be nil
// for occurrences outside any transaction. The call returns after
// immediate rule processing completes on the server.
func (c *Client) SignalEvent(tx *Txn, name string, args map[string]datum.Value) error {
	return c.inTxn(tx, ipc.OpSignalEvent, ipc.SignalEventReq{Name: name, Args: args})
}

// inTxn sends a signal or fire request, in tx when tx is non-nil.
func (c *Client) inTxn(tx *Txn, op string, req ipc.SignalEventReq) error {
	if tx == nil {
		return c.call(op, req, nil)
	}
	return tx.call(op, nil, func(id uint64) any {
		req.Txn = id
		return req
	})
}

// --- application operations ---

// Serve registers handlers for application operations; the DBMS
// routes rule-action requests for these operations to this
// connection.
func (c *Client) Serve(handlers map[string]Handler) error {
	ops := make([]string, 0, len(handlers))
	c.mu.Lock()
	for op, h := range handlers {
		c.handlers[op] = h
		ops = append(ops, op)
	}
	c.mu.Unlock()
	return c.call(ipc.OpServe, ipc.ServeReq{Ops: ops}, nil)
}

// --- operations on rules ---

// CreateRule defines, persists, and activates an ECA rule.
func (c *Client) CreateRule(def rule.Def) error {
	return c.call(ipc.OpCreateRule, ipc.CreateRuleReq{Def: def}, nil)
}

// UpdateRule replaces a rule's definition in place (§2.2 "modify").
func (c *Client) UpdateRule(def rule.Def) error {
	return c.call(ipc.OpUpdateRule, ipc.CreateRuleReq{Def: def}, nil)
}

// DeleteRule removes a rule.
func (c *Client) DeleteRule(name string) error {
	return c.call(ipc.OpDeleteRule, ipc.RuleNameReq{Name: name}, nil)
}

// EnableRule re-enables automatic firing.
func (c *Client) EnableRule(name string) error {
	return c.call(ipc.OpEnableRule, ipc.RuleNameReq{Name: name}, nil)
}

// DisableRule suspends automatic firing.
func (c *Client) DisableRule(name string) error {
	return c.call(ipc.OpDisableRule, ipc.RuleNameReq{Name: name}, nil)
}

// FireRule fires a rule manually.
func (c *Client) FireRule(tx *Txn, name string, args map[string]datum.Value) error {
	return c.inTxn(tx, ipc.OpFireRule, ipc.FireRuleReq{Name: name, Args: args})
}

// Rules lists registered rules.
func (c *Client) Rules() ([]ipc.RuleInfo, error) {
	var rep ipc.ListRulesRep
	if err := c.call(ipc.OpListRules, nil, &rep); err != nil {
		return nil, err
	}
	return rep.Rules, nil
}

// Graph lists the server's condition-graph nodes (rule-base
// tooling: which queries are shared by how many rules).
func (c *Client) Graph() ([]ipc.GraphNode, error) {
	var rep ipc.GraphRep
	if err := c.call(ipc.OpGraph, nil, &rep); err != nil {
		return nil, err
	}
	return rep.Nodes, nil
}

// Stats fetches the server's counters: the engine's Stats struct as
// raw JSON (see internal/core) plus the observability snapshot with
// the latency histograms.
func (c *Client) Stats() (*ipc.StatsRep, error) {
	var rep ipc.StatsRep
	if err := c.call(ipc.OpStats, nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Checkpoint asks the server to run one fuzzy checkpoint now and
// reports what it wrote: the chain-element kind ("full" or "delta"),
// its record count, and the WAL bytes reclaimed. Commits proceed
// concurrently on the server; only the covered log prefix is dropped.
func (c *Client) Checkpoint() (*ipc.CheckpointRep, error) {
	var rep ipc.CheckpointRep
	if err := c.call(ipc.OpCheckpoint, nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// ReplStatus reports the node's replication role and state: a
// primary's follower connections and durable frontier, or a replica's
// applied frontier, lag, and catchup counters.
func (c *Client) ReplStatus() (*ipc.ReplStatusRep, error) {
	var rep ipc.ReplStatusRep
	if err := c.call(ipc.OpReplStatus, nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Promote asks a replica to detach from its primary and recover into
// a writable store, reporting the applied LSN it promoted at. A
// primary answers with an error.
func (c *Client) Promote() (*ipc.PromoteRep, error) {
	var rep ipc.PromoteRep
	if err := c.call(ipc.OpPromote, nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Trace fetches the server's newest finished firing trees, newest
// first (n <= 0 means all retained).
func (c *Client) Trace(n int) ([]obs.SpanSnapshot, error) {
	var rep ipc.TraceRep
	if err := c.call(ipc.OpTrace, ipc.TraceReq{Last: n}, &rep); err != nil {
		return nil, err
	}
	return rep.Traces, nil
}
