package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/datum"
	"repro/internal/ipc"
	"repro/internal/txn"
)

// errReadOnly answers every mutating operation a client tries against
// a replica.
var errReadOnly = errors.New("repl: replica is read-only; send writes to the primary")

// Server exposes a replica's read path over the ipc protocol: the
// same wire format and operations as the full server, restricted to
// Begin/Commit/Abort, Get, Query, Classes, Stats, ReplStatus, and
// Promote. Every read resolves against one pinned MVCC snapshot at
// the replica's applied-LSN frontier; writes and rule operations are
// rejected with a redirect-style error.
type Server struct {
	rep *Replica
	// onPromote, when set, performs the whole promotion (typically the
	// daemon: stop this server, reopen the data directory as a full
	// engine, start a writable server). It returns the applied LSN the
	// promoted store recovered to.
	onPromote func() (uint64, error)
	// promoted is closed once a successful OpPromote has been answered;
	// the daemon waits for it before closing this server, so the reply
	// is not lost with the connection.
	promoted chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a read server over rep. onPromote may be nil, in
// which case OpPromote detaches the replica (Replica.Promote) and
// reports its applied LSN, leaving the caller to reopen the returned
// directory out of band.
func NewServer(rep *Replica, onPromote func() (uint64, error)) *Server {
	return &Server{rep: rep, onPromote: onPromote, promoted: make(chan struct{}),
		conns: map[net.Conn]struct{}{}}
}

// Promoted is closed after a successful promotion's reply is written.
func (s *Server) Promoted() <-chan struct{} { return s.promoted }

// Serve accepts client connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("repl: server closed")
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
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
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

// Close stops accepting and closes every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	var conns []net.Conn
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// replSession is one client connection to the read server. Read
// transactions exist only to satisfy the protocol's Begin/op/Commit
// shape — each read pins its own snapshot regardless.
type replSession struct {
	srv  *Server
	conn net.Conn

	writeMu sync.Mutex
	mu      sync.Mutex
	txns    map[uint64]*txn.Txn
}

func (s *Server) serveConn(conn net.Conn) {
	sess := &replSession{srv: s, conn: conn, txns: map[uint64]*txn.Txn{}}
	defer sess.cleanup()
	for {
		m, err := ipc.Read(conn)
		if err != nil {
			return
		}
		if m.Kind != ipc.KindRequest {
			continue
		}
		go sess.handle(m)
	}
}

func (s *replSession) cleanup() {
	s.mu.Lock()
	open := s.txns
	s.txns = map[uint64]*txn.Txn{}
	s.mu.Unlock()
	for _, t := range open {
		t.Abort()
	}
}

func (s *replSession) reply(req *ipc.Message, body any, err error) {
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
	s.writeMu.Lock()
	ipc.Write(s.conn, m) // best-effort; read loop notices a dead conn
	s.writeMu.Unlock()
}

func (s *replSession) handle(req *ipc.Message) {
	rep := s.srv.rep
	switch req.Op {
	case ipc.OpBegin:
		_, txns, err := rep.reader()
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		t := txns.Begin()
		s.mu.Lock()
		s.txns[uint64(t.ID())] = t
		s.mu.Unlock()
		s.reply(req, ipc.BeginRep{Txn: uint64(t.ID())}, nil)

	case ipc.OpCommit, ipc.OpAbort:
		var body ipc.TxnRef
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.mu.Lock()
		t := s.txns[body.Txn]
		delete(s.txns, body.Txn)
		s.mu.Unlock()
		if t == nil {
			s.reply(req, nil, fmt.Errorf("repl: unknown transaction %d", body.Txn))
			return
		}
		if req.Op == ipc.OpCommit {
			s.reply(req, nil, t.Commit())
		} else {
			s.reply(req, nil, t.Abort())
		}

	case ipc.OpGet:
		var body ipc.GetReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		rec, err := rep.Get(datum.OID(body.OID))
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, ipc.GetRep{OID: uint64(rec.OID), Class: rec.Class, Attrs: rec.Attrs}, nil)

	case ipc.OpQuery:
		var body ipc.QueryReq
		if err := ipc.DecodeBody(req, &body); err != nil {
			s.reply(req, nil, err)
			return
		}
		res, _, err := rep.Query(body.Src, body.Args)
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, ipc.QueryRep{Columns: res.Columns, Rows: res.Rows}, nil)

	case ipc.OpClasses:
		classes, err := rep.Classes()
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		out := classes[:0]
		for _, c := range classes {
			if len(c.Name) < 2 || c.Name[:2] != "__" {
				out = append(out, c)
			}
		}
		s.reply(req, ipc.ClassesRep{Classes: out}, nil)

	case ipc.OpStats:
		st := rep.Store()
		var engRaw []byte
		var err error
		if st != nil {
			engRaw, err = ipc.EncodeBody(struct {
				Store any               `json:"Store"`
				Repl  ipc.ReplStatusRep `json:"Repl"`
			}{st.Stats(), rep.Status()})
		} else {
			engRaw, err = ipc.EncodeBody(struct {
				Repl ipc.ReplStatusRep `json:"Repl"`
			}{rep.Status()})
		}
		if err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, ipc.StatsRep{Engine: engRaw, Obs: rep.o.Snapshot()}, nil)

	case ipc.OpReplStatus:
		s.reply(req, rep.Status(), nil)

	case ipc.OpPromote:
		if s.srv.onPromote != nil {
			applied, err := s.srv.onPromote()
			if err != nil {
				s.reply(req, nil, err)
				return
			}
			s.reply(req, ipc.PromoteRep{AppliedLSN: applied}, nil)
			close(s.srv.promoted) // Promote succeeds at most once
			return
		}
		applied := uint64(rep.AppliedLSN())
		if _, err := rep.Promote(); err != nil {
			s.reply(req, nil, err)
			return
		}
		s.reply(req, ipc.PromoteRep{AppliedLSN: applied}, nil)
		close(s.srv.promoted)

	default:
		s.reply(req, nil, errReadOnly)
	}
}
