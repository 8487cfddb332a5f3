// Package server exposes a HiPAC engine to application programs over
// the ipc protocol, implementing the application/DBMS interface of
// Figure 4.1 of the paper: operations on data, on transactions, on
// events — and application operations, where the server reverses
// roles and sends requests to connected clients when rule actions
// name operations those clients registered to serve.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/ipc"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rule"
	"repro/internal/txn"
)

// CallTimeout bounds how long a rule action waits for an application
// program to answer a request.
const CallTimeout = 30 * time.Second

// Server serves a HiPAC engine over stream connections.
type Server struct {
	eng *core.Engine

	mu         sync.Mutex
	ln         net.Listener
	sessions   map[*session]struct{}
	serving    map[string][]*session // app operation -> serving sessions
	rr         map[string]int        // round-robin cursor per operation
	replStatus func() ipc.ReplStatusRep
	closed     bool
}

// New returns a server for the engine and installs itself as the
// engine's fallback application-operation dispatcher.
func New(eng *core.Engine) *Server {
	s := &Server{
		eng:      eng,
		sessions: map[*session]struct{}{},
		serving:  map[string][]*session{},
		rr:       map[string]int{},
	}
	eng.SetFallbackDispatcher(s)
	return s
}

// SetReplStatus installs the hook answering OpReplStatus — a primary
// running a WAL shipping stream reports its follower connections and
// durable frontier through it. Without a hook the server answers with
// a bare primary role.
func (s *Server) SetReplStatus(fn func() ipc.ReplStatusRep) {
	s.mu.Lock()
	s.replStatus = fn
	s.mu.Unlock()
}

// Serve accepts connections on ln until Close. It returns the
// listener's error (nil after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
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

// Close stops accepting and closes every session.
func (s *Server) Close() error {
	s.mu.Lock()
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
		sess.close()
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
	return sess.appCall(op, args)
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

// session is one client connection.
type session struct {
	srv  *Server
	conn net.Conn

	writeMu sync.Mutex // serializes frames onto conn

	mu       sync.Mutex
	txns     map[uint64]*txn.Txn
	txnLocks map[uint64]*sync.Mutex // serialize ops on one txn
	pending  map[uint64]chan *ipc.Message
	nextCall uint64
	closed   bool
}

func newSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:      srv,
		conn:     conn,
		txns:     map[uint64]*txn.Txn{},
		txnLocks: map[uint64]*sync.Mutex{},
		pending:  map[uint64]chan *ipc.Message{},
		nextCall: 1,
	}
}

func (s *session) run() {
	defer s.close()
	for {
		m, err := ipc.Read(s.conn)
		if err != nil {
			return
		}
		switch m.Kind {
		case ipc.KindRequest:
			// Each request gets its own goroutine: a blocked lock
			// acquisition or a rule firing awaiting an application
			// reply must not stall the connection's read loop.
			go s.handle(m)
		case ipc.KindAppReply:
			s.mu.Lock()
			ch := s.pending[m.ID]
			delete(s.pending, m.ID)
			s.mu.Unlock()
			if ch != nil {
				ch <- m
			}
		}
	}
}

func (s *session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var open []*txn.Txn
	for _, t := range s.txns {
		open = append(open, t)
	}
	s.txns = map[uint64]*txn.Txn{}
	pend := s.pending
	s.pending = map[uint64]chan *ipc.Message{}
	s.mu.Unlock()

	s.conn.Close()
	s.srv.dropSession(s)
	for _, ch := range pend {
		close(ch)
	}
	// Abort the disconnected client's transactions (children first:
	// sort by descending id — children always have larger ids).
	for i := 1; i < len(open); i++ {
		for j := i; j > 0 && open[j].ID() > open[j-1].ID(); j-- {
			open[j], open[j-1] = open[j-1], open[j]
		}
	}
	for _, t := range open {
		t.Abort() // best-effort; errors ignored on teardown
	}
}

// appCall sends an application request to this session's client and
// waits for the reply.
func (s *session) appCall(op string, args map[string]datum.Value) (map[string]datum.Value, error) {
	body, err := ipc.EncodeBody(ipc.AppCallBody{Op: op, Args: args})
	if err != nil {
		return nil, err
	}
	ch := make(chan *ipc.Message, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("server: application disconnected")
	}
	id := s.nextCall
	s.nextCall++
	s.pending[id] = ch
	s.mu.Unlock()

	if err := s.send(&ipc.Message{ID: id, Kind: ipc.KindAppCall, Op: op, Body: body}); err != nil {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
		return nil, err
	}
	// A stopped timer is collectable at once; an unstopped one (and
	// time.After's, under this module's go 1.22 timer semantics) stays
	// live until it fires, CallTimeout after every answered call.
	timeout := time.NewTimer(CallTimeout)
	defer timeout.Stop()
	select {
	case m, ok := <-ch:
		if !ok {
			return nil, errors.New("server: application disconnected")
		}
		if m.Err != "" {
			return nil, fmt.Errorf("server: application error: %s", m.Err)
		}
		var rep ipc.AppReplyBody
		if err := ipc.DecodeBody(m, &rep); err != nil {
			return nil, err
		}
		return rep.Reply, nil
	case <-timeout.C:
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
		return nil, fmt.Errorf("server: application did not answer %q", op)
	}
}

func (s *session) send(m *ipc.Message) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return ipc.Write(s.conn, m)
}

func (s *session) reply(req *ipc.Message, body any, err error) {
	m := &ipc.Message{ID: req.ID, Kind: ipc.KindReply, Op: req.Op}
	if err != nil {
		m.Err = err.Error()
	} else if body != nil {
		raw, encErr := ipc.EncodeBody(body)
		if encErr != nil {
			m.Err = encErr.Error()
		} else {
			m.Body = raw
		}
	}
	s.send(m) // best-effort; a write error tears the session down via run()
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

func (s *session) addTxn(t *txn.Txn) {
	s.mu.Lock()
	s.txns[uint64(t.ID())] = t
	s.txnLocks[uint64(t.ID())] = &sync.Mutex{}
	s.mu.Unlock()
}

func (s *session) removeTxn(id uint64) {
	s.mu.Lock()
	delete(s.txns, id)
	delete(s.txnLocks, id)
	s.mu.Unlock()
}

// handle dispatches one request.
func (s *session) handle(req *ipc.Message) {
	eng := s.srv.eng
	tm := eng.Obs.Metrics().Timer(obs.HIPCRequest)
	defer tm.Done()
	switch req.Op {
	case ipc.OpBegin:
		t := eng.Begin()
		s.addTxn(t)
		s.reply(req, ipc.BeginRep{Txn: uint64(t.ID())}, nil)

	case ipc.OpChild:
		var body ipc.TxnRef
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		parent, mu, err := s.lookupTxn(body.Txn)
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		mu.Lock()
		child, err := parent.Child()
		mu.Unlock()
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		s.addTxn(child)
		s.reply(req, ipc.BeginRep{Txn: uint64(child.ID())}, nil)

	case ipc.OpCommit, ipc.OpAbort:
		var body ipc.TxnRef
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		t, mu, err := s.lookupTxn(body.Txn)
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		mu.Lock()
		if req.Op == ipc.OpCommit {
			err = t.Commit()
		} else {
			err = t.Abort()
		}
		mu.Unlock()
		s.removeTxn(body.Txn)
		s.reply(req, nil, err)

	case ipc.OpDefineClass:
		var body ipc.DefineClassReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.DefineClass(t, body.Class)
		})

	case ipc.OpDropClass:
		var body ipc.DropClassReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.DropClass(t, body.Name)
		})

	case ipc.OpClasses:
		var body ipc.TxnRef
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			classes, err := eng.Classes(t)
			if err != nil {
				return nil, err
			}
			// Hide system classes from the listing.
			var out []object.Class
			for _, c := range classes {
				if len(c.Name) < 2 || c.Name[:2] != "__" {
					out = append(out, c)
				}
			}
			return ipc.ClassesRep{Classes: out}, nil
		})

	case ipc.OpCreate:
		var body ipc.CreateReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			oid, err := eng.Create(t, body.Class, body.Attrs)
			if err != nil {
				return nil, err
			}
			return ipc.CreateRep{OID: uint64(oid)}, nil
		})

	case ipc.OpModify:
		var body ipc.ModifyReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.Modify(t, datum.OID(body.OID), body.Attrs)
		})

	case ipc.OpDelete:
		var body ipc.DeleteReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.Delete(t, datum.OID(body.OID))
		})

	case ipc.OpGet:
		var body ipc.GetReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			rec, err := eng.Get(t, datum.OID(body.OID))
			if err != nil {
				return nil, err
			}
			return ipc.GetRep{OID: uint64(rec.OID), Class: rec.Class, Attrs: rec.Attrs}, nil
		})

	case ipc.OpQuery:
		var body ipc.QueryReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			res, err := eng.Query(t, body.Src, body.Args)
			if err != nil {
				return nil, err
			}
			return ipc.QueryRep{Columns: res.Columns, Rows: res.Rows}, nil
		})

	case ipc.OpExplain:
		var body ipc.ExplainReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			text, err := eng.Explain(t, body.Src, body.Args)
			if err != nil {
				return nil, err
			}
			return ipc.ExplainRep{Text: text}, nil
		})

	case ipc.OpDefineEvent:
		var body ipc.DefineEventReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, nil, eng.DefineEvent(body.Name, body.Params...))

	case ipc.OpSignalEvent:
		var body ipc.SignalEventReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		if body.Txn == 0 {
			s.reply(req, nil, eng.SignalEvent(nil, body.Name, body.Args))
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.SignalEvent(t, body.Name, body.Args)
		})

	case ipc.OpCreateRule:
		var body ipc.CreateRuleReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		_, err := eng.CreateRule(body.Def)
		s.reply(req, nil, err)

	case ipc.OpUpdateRule:
		var body ipc.CreateRuleReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		_, err := eng.UpdateRule(body.Def)
		s.reply(req, nil, err)

	case ipc.OpDeleteRule, ipc.OpEnableRule, ipc.OpDisableRule:
		var body ipc.RuleNameReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		var err error
		switch req.Op {
		case ipc.OpDeleteRule:
			err = eng.DeleteRule(body.Name)
		case ipc.OpEnableRule:
			err = eng.EnableRule(body.Name)
		case ipc.OpDisableRule:
			err = eng.DisableRule(body.Name)
		}
		s.reply(req, nil, err)

	case ipc.OpFireRule:
		var body ipc.FireRuleReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		if body.Txn == 0 {
			s.reply(req, nil, eng.FireRule(nil, body.Name, body.Args))
			return
		}
		s.withTxn(req, body.Txn, func(t *txn.Txn) (any, error) {
			return nil, eng.FireRule(t, body.Name, body.Args)
		})

	case ipc.OpListRules:
		var infos []ipc.RuleInfo
		for _, r := range eng.Rules.Rules() {
			infos = append(infos, ruleInfo(r))
		}
		s.reply(req, ipc.ListRulesRep{Rules: infos}, nil)

	case ipc.OpServe:
		var body ipc.ServeReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.srv.registerServing(s, body.Ops)
		s.reply(req, nil, nil)

	case ipc.OpStats:
		engRaw, err := ipc.EncodeBody(eng.Stats())
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, ipc.StatsRep{Engine: engRaw, Obs: eng.Obs.Snapshot()}, nil)

	case ipc.OpTrace:
		var body ipc.TraceReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, ipc.TraceRep{Traces: eng.Obs.Tracer().Last(body.Last)}, nil)

	case ipc.OpCheckpoint:
		res, err := eng.Checkpoint()
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, ipc.CheckpointRep{Kind: res.Kind, Records: res.Records,
			Reclaimed: res.Reclaimed}, nil)

	case ipc.OpReplStatus:
		s.srv.mu.Lock()
		fn := s.srv.replStatus
		s.srv.mu.Unlock()
		if fn == nil {
			s.reply(req, ipc.ReplStatusRep{Role: "primary"}, nil)
			return
		}
		s.reply(req, fn(), nil)

	case ipc.OpPromote:
		s.reply(req, nil, errors.New("server: this node is already a writable primary"))

	case ipc.OpGraph:
		var rep ipc.GraphRep
		for _, n := range eng.Conditions.Nodes() {
			rep.Nodes = append(rep.Nodes, ipc.GraphNode{
				Query: n.Query, Refs: n.Refs, EventFree: n.EventFree, Cached: n.Cached,
				Guards: n.Guards,
			})
		}
		s.reply(req, rep, nil)

	default:
		s.reply(req, nil, fmt.Errorf("server: unknown operation %q", req.Op))
	}
}

// withTxn runs fn under the transaction's serialization mutex and
// replies with its result.
func (s *session) withTxn(req *ipc.Message, id uint64, fn func(*txn.Txn) (any, error)) {
	t, mu, err := s.lookupTxn(id)
	if err != nil {
		s.reply(req, nil, err)
		return
	}
	mu.Lock()
	body, err := fn(t)
	mu.Unlock()
	s.reply(req, body, err)
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
