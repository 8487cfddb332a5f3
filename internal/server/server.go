// Package server exposes a HiPAC node to application programs over
// the ipc protocol, implementing the application/DBMS interface of
// Figure 4.1 of the paper: operations on data, on transactions, on
// events — and application operations, where the server reverses
// roles and sends requests to connected clients when rule actions
// name operations those clients registered to serve. The node is an
// engine, or a read replica whose server answers reads and refuses
// writes.
package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/ipc"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/rule"
	"repro/internal/txn"
)

// CallTimeout bounds how long a rule action waits for an application
// program to answer a request.
const CallTimeout = 30 * time.Second

// errReadOnly answers every write and rule operation sent to a
// replica.
var errReadOnly = errors.New("server: replica is read-only; send writes to the primary")

// Server serves a HiPAC node over stream connections.
type Server struct {
	eng *core.Engine  // the engine served; nil on a replica
	rep *repl.Replica // the replica served; nil on an engine
	obs *obs.Obs      // the node's: every request is timed into its ipc_request
	// begin starts a top-level transaction for a request carrying the
	// begin flag.
	begin func() (*txn.Txn, error)
	// op answers one request: engineOp or replicaOp.
	op func(*session, *ipc.Message) (any, error)
	// onPromote performs a replica's whole promotion (the daemon: stop
	// this server, reopen the data directory as an engine, serve writes)
	// and returns the applied LSN the promoted store recovered to.
	onPromote func() (uint64, error)
	// promoted is closed once a promotion has been answered; the daemon
	// waits for it before closing this server, so the reply is not lost
	// with the connection.
	promoted chan struct{}

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	serving  map[string][]*session // app operation -> serving sessions
	rr       map[string]int        // round-robin cursor per operation
	status   func() ipc.ReplStatusRep
	closed   bool
}

func newServer(o *obs.Obs, op func(*session, *ipc.Message) (any, error)) *Server {
	return &Server{op: op, obs: o, promoted: make(chan struct{}),
		sessions: map[*session]struct{}{},
		serving:  map[string][]*session{},
		rr:       map[string]int{},
		status:   func() ipc.ReplStatusRep { return ipc.ReplStatusRep{Role: "primary"} },
	}
}

// New returns a server for the engine and installs itself as the
// engine's fallback application-operation dispatcher.
func New(eng *core.Engine) *Server {
	s := newServer(eng.Obs, (*session).engineOp)
	s.eng = eng
	s.begin = func() (*txn.Txn, error) { return eng.Begin(), nil }
	eng.SetFallbackDispatcher(s)
	return s
}

// NewReplica returns a server for a replica's read path: Commit/Abort,
// Get, Query, Classes, Stats, ReplStatus and Promote.
// Every read resolves against one pinned MVCC snapshot at the
// replica's applied-LSN frontier; any other operation is refused with
// a read-only error. OpPromote runs onPromote.
func NewReplica(rep *repl.Replica, onPromote func() (uint64, error)) *Server {
	s := newServer(rep.Obs(), (*session).replicaOp)
	s.rep, s.onPromote, s.status, s.begin = rep, onPromote, rep.Status, rep.Begin
	return s
}

// SetReplStatus installs the hook answering OpReplStatus — a primary
// running a WAL shipping stream reports its follower connections and
// durable frontier through it. Without a hook an engine answers with a
// bare primary role.
func (s *Server) SetReplStatus(fn func() ipc.ReplStatusRep) {
	s.mu.Lock()
	s.status = fn
	s.mu.Unlock()
}

func (s *Server) replStatus() ipc.ReplStatusRep {
	s.mu.Lock()
	fn := s.status
	s.mu.Unlock()
	return fn()
}

// Promoted is closed after a successful promotion's reply is written.
func (s *Server) Promoted() <-chan struct{} { return s.promoted }

// Serve accepts connections on ln until Close. It returns the
// listener's error (nil after Close, and at once if Close came first).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.closed { // accepted while Close ran: it did not see this one
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		go sess.run()
	}
}

// ListenAndServe listens on a TCP address and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (once Serve has been called).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and closes every session. Closing twice is a
// no-op.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	var sessions []*session
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, sess := range sessions {
		sess.conn.Close()
	}
	return err
}

// Dispatch implements rule.AppDispatcher: route an application
// request from a rule action to a connected client serving the
// operation (round-robin among them).
func (s *Server) Dispatch(op string, args map[string]datum.Value) (map[string]datum.Value, error) {
	s.mu.Lock()
	list := s.serving[op]
	if len(list) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: no connected application serves %q", op)
	}
	idx := s.rr[op] % len(list)
	s.rr[op]++
	sess := list[idx]
	s.mu.Unlock()
	var rep ipc.AppReplyBody
	if err := sess.conn.Call(op, ipc.AppCallBody{Op: op, Args: args}, &rep, CallTimeout); err != nil {
		return nil, fmt.Errorf("server: application operation %q: %w", op, err)
	}
	return rep.Reply, nil
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	for op, list := range s.serving {
		kept := list[:0]
		for _, x := range list {
			if x != sess {
				kept = append(kept, x)
			}
		}
		if len(kept) == 0 {
			delete(s.serving, op)
		} else {
			s.serving[op] = kept
		}
	}
	s.mu.Unlock()
}

func (s *Server) registerServing(sess *session, ops []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		s.serving[op] = append(s.serving[op], sess)
	}
}

// statsRep pairs the node's own counters with its observability
// snapshot.
func (s *Server) statsRep(counters any) (any, error) {
	raw, err := ipc.EncodeBody(counters)
	if err != nil {
		return nil, err
	}
	return ipc.StatsRep{Engine: raw, Obs: s.obs.Snapshot()}, nil
}

// session is one client connection.
type session struct {
	srv  *Server
	conn *ipc.Conn

	mu       sync.Mutex
	txns     map[uint64]*txn.Txn
	txnLocks map[uint64]*sync.Mutex // serialize ops on one txn
}

func newSession(srv *Server, conn net.Conn) *session {
	s := &session{srv: srv, txns: map[uint64]*txn.Txn{}, txnLocks: map[uint64]*sync.Mutex{}}
	s.conn = ipc.NewConn(conn, ipc.KindAppCall, s.handle, srv.obs.Metrics())
	return s
}

// run serves the connection until it closes, then aborts the
// disconnected client's transactions.
func (s *session) run() {
	s.conn.Run()
	s.srv.dropSession(s)
	s.mu.Lock()
	var open []*txn.Txn
	for _, t := range s.txns {
		open = append(open, t)
	}
	s.txns = map[uint64]*txn.Txn{}
	s.mu.Unlock()
	// Children first: sort by descending id — children always have
	// larger ids.
	for i := 1; i < len(open); i++ {
		for j := i; j > 0 && open[j].ID() > open[j-1].ID(); j-- {
			open[j], open[j-1] = open[j-1], open[j]
		}
	}
	for _, t := range open {
		t.Abort() // best-effort; errors ignored on teardown
	}
}

// handle answers one request, on its own goroutine: a blocked lock
// acquisition or a rule firing awaiting an application reply must not
// stall the connection.
func (s *session) handle(req *ipc.Message) {
	tm := s.srv.obs.Metrics().Timer(obs.HIPCRequest)
	defer tm.Done()
	body, err := s.srv.op(s, req)
	s.conn.Reply(req, body, err)
	if req.Op == ipc.OpPromote && err == nil {
		close(s.srv.promoted) // a replica is promoted at most once
	}
}

// lookupTxn resolves a transaction reference and its serialization
// mutex.
func (s *session) lookupTxn(id uint64) (*txn.Txn, *sync.Mutex, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.txns[id]
	if t == nil {
		return nil, nil, fmt.Errorf("server: unknown transaction %d", id)
	}
	return t, s.txnLocks[id], nil
}

// addTxn registers a transaction and returns its id.
func (s *session) addTxn(t *txn.Txn) uint64 {
	id := uint64(t.ID())
	s.mu.Lock()
	s.txns[id] = t
	s.txnLocks[id] = &sync.Mutex{}
	s.mu.Unlock()
	return id
}

// withTxn runs fn under the serialization mutex of the request's
// transaction: the one id names or, when the request carries the begin
// flag, a top-level transaction begun for it, whose id the reply
// carries back.
func (s *session) withTxn(req *ipc.Message, id uint64, fn func(*txn.Txn) (any, error)) (any, error) {
	if req.Begin {
		t, err := s.srv.begin()
		if err != nil {
			return nil, err
		}
		id = s.addTxn(t)
		req.Txn = id
	}
	t, mu, err := s.lookupTxn(id)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	return fn(t)
}

// endTxn commits or aborts the transaction a request names, and
// forgets it.
func (s *session) endTxn(req *ipc.Message) error {
	var body ipc.TxnRef
	if err := ipc.DecodeBody(req, &body); err != nil {
		return err
	}
	_, err := s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
		if req.Op == ipc.OpCommit {
			return nil, t.Commit()
		}
		return nil, t.Abort()
	})
	s.mu.Lock()
	delete(s.txns, body.Txn)
	delete(s.txnLocks, body.Txn)
	s.mu.Unlock()
	return err
}

// classesRep lists user classes, hiding system ones.
func classesRep(classes []object.Class, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	var out []object.Class
	for _, c := range classes {
		if !strings.HasPrefix(c.Name, "__") {
			out = append(out, c)
		}
	}
	return ipc.ClassesRep{Classes: out}, nil
}

// replicaOp answers one request on a replica.
func (s *session) replicaOp(req *ipc.Message) (any, error) {
	rep := s.srv.rep
	switch req.Op {
	case ipc.OpCommit, ipc.OpAbort:
		return nil, s.endTxn(req)

	case ipc.OpGet:
		var body ipc.GetReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(*txn.Txn) (any, error) {
			rec, err := rep.Get(datum.OID(body.OID))
			if err != nil {
				return nil, err
			}
			return ipc.GetRep{OID: uint64(rec.OID), Class: rec.Class, Attrs: rec.Attrs}, nil
		})

	case ipc.OpQuery:
		var body ipc.QueryReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(*txn.Txn) (any, error) {
			res, _, err := rep.Query(body.Src, body.Args)
			if err != nil {
				return nil, err
			}
			return ipc.QueryRep{Columns: res.Columns, Rows: res.Rows}, nil
		})

	case ipc.OpClasses:
		var body ipc.TxnRef
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(*txn.Txn) (any, error) {
			return classesRep(rep.Classes())
		})

	case ipc.OpStats:
		stats := struct {
			Store any `json:",omitempty"`
			Repl  ipc.ReplStatusRep
		}{Repl: rep.Status()}
		if st := rep.Store(); st != nil {
			stats.Store = st.Stats()
		}
		return s.srv.statsRep(stats)

	case ipc.OpReplStatus:
		return s.srv.replStatus(), nil

	case ipc.OpPromote:
		applied, err := s.srv.onPromote()
		if err != nil {
			return nil, err
		}
		return ipc.PromoteRep{AppliedLSN: applied}, nil

	default:
		return nil, errReadOnly
	}
}

// engineOp answers one request on an engine.
func (s *session) engineOp(req *ipc.Message) (any, error) {
	eng := s.srv.eng
	switch req.Op {
	case ipc.OpChild:
		var body ipc.TxnRef
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			child, err := t.Child()
			if err != nil {
				return nil, err
			}
			return ipc.BeginRep{Txn: s.addTxn(child)}, nil
		})

	case ipc.OpCommit, ipc.OpAbort:
		return nil, s.endTxn(req)

	case ipc.OpDefineClass:
		var body ipc.DefineClassReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.DefineClass(t, body.Class)
		})

	case ipc.OpDropClass:
		var body ipc.DropClassReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.DropClass(t, body.Name)
		})

	case ipc.OpClasses:
		var body ipc.TxnRef
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return classesRep(eng.Classes(t))
		})

	case ipc.OpCreate:
		var body ipc.CreateReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			oid, err := eng.Create(t, body.Class, body.Attrs)
			if err != nil {
				return nil, err
			}
			return ipc.CreateRep{OID: uint64(oid)}, nil
		})

	case ipc.OpModify:
		var body ipc.ModifyReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.Modify(t, datum.OID(body.OID), body.Attrs)
		})

	case ipc.OpDelete:
		var body ipc.DeleteReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.Delete(t, datum.OID(body.OID))
		})

	case ipc.OpGet:
		var body ipc.GetReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			rec, err := eng.Get(t, datum.OID(body.OID))
			if err != nil {
				return nil, err
			}
			return ipc.GetRep{OID: uint64(rec.OID), Class: rec.Class, Attrs: rec.Attrs}, nil
		})

	case ipc.OpQuery:
		var body ipc.QueryReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			res, err := eng.Query(t, body.Src, body.Args)
			if err != nil {
				return nil, err
			}
			return ipc.QueryRep{Columns: res.Columns, Rows: res.Rows}, nil
		})

	case ipc.OpExplain:
		var body ipc.ExplainReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			text, err := eng.Explain(t, body.Src, body.Args)
			if err != nil {
				return nil, err
			}
			return ipc.ExplainRep{Text: text}, nil
		})

	case ipc.OpDefineEvent:
		var body ipc.DefineEventReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return nil, eng.DefineEvent(body.Name, body.Params...)

	case ipc.OpSignalEvent, ipc.OpFireRule:
		var body ipc.SignalEventReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		raise := eng.SignalEvent
		if req.Op == ipc.OpFireRule {
			raise = eng.FireRule
		}
		if body.Txn == 0 && !req.Begin {
			return nil, raise(nil, body.Name, body.Args)
		}
		return s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, raise(t, body.Name, body.Args)
		})

	case ipc.OpCreateRule:
		var body ipc.CreateRuleReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		_, err := eng.CreateRule(body.Def)
		return nil, err

	case ipc.OpUpdateRule:
		var body ipc.CreateRuleReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		_, err := eng.UpdateRule(body.Def)
		return nil, err

	case ipc.OpDeleteRule, ipc.OpEnableRule, ipc.OpDisableRule:
		var body ipc.RuleNameReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		switch req.Op {
		case ipc.OpDeleteRule:
			return nil, eng.DeleteRule(body.Name)
		case ipc.OpEnableRule:
			return nil, eng.EnableRule(body.Name)
		}
		return nil, eng.DisableRule(body.Name)

	case ipc.OpListRules:
		var infos []ipc.RuleInfo
		for _, r := range eng.Rules.Rules() {
			infos = append(infos, ruleInfo(r))
		}
		return ipc.ListRulesRep{Rules: infos}, nil

	case ipc.OpServe:
		var body ipc.ServeReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		s.srv.registerServing(s, body.Ops)
		return nil, nil

	case ipc.OpStats:
		return s.srv.statsRep(eng.Stats())

	case ipc.OpTrace:
		var body ipc.TraceReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			return nil, err
		}
		return ipc.TraceRep{Traces: eng.Obs.Tracer().Last(body.Last)}, nil

	case ipc.OpCheckpoint:
		res, err := eng.Checkpoint()
		if err != nil {
			return nil, err
		}
		return ipc.CheckpointRep{Kind: res.Kind, Records: res.Records, Reclaimed: res.Reclaimed}, nil

	case ipc.OpReplStatus:
		return s.srv.replStatus(), nil

	case ipc.OpPromote:
		return nil, errors.New("server: this node is already a writable primary")

	case ipc.OpGraph:
		var rep ipc.GraphRep
		for _, n := range eng.Conditions.Nodes() {
			rep.Nodes = append(rep.Nodes, ipc.GraphNode{Query: n.Query, Refs: n.Refs, Guards: n.Guards})
		}
		return rep, nil

	default:
		return nil, fmt.Errorf("server: unknown operation %q", req.Op)
	}
}

func ruleInfo(r *rule.Rule) ipc.RuleInfo {
	return ipc.RuleInfo{
		Name:    r.Name,
		Event:   r.EventString(),
		EC:      r.EC.String(),
		CA:      r.CA.String(),
		Enabled: r.Enabled,
	}
}
