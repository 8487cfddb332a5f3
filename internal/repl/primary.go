package repl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// streamBudget bounds the WAL bytes one ReadDurable pass turns into
// batch frames before checking the connection again.
const streamBudget = 1 << 20

// heartbeatEvery is how often an idle stream sends its durable
// frontier so followers can measure lag without traffic.
const heartbeatEvery = 250 * time.Millisecond

// Primary serves the WAL shipping stream of one store to any number
// of followers. It reads the log strictly below the group-commit
// flush frontier, so a batch is shipped only once its fsync (or, on a
// NoSync store, its Sync call) has completed — a follower can never
// apply a commit the primary might lose.
type Primary struct {
	store *storage.Store
	obsm  *obs.Metrics

	nBatches atomic.Uint64
	nResyncs atomic.Uint64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewPrimary wraps a store for WAL shipping. The store must be
// durable (have a directory); Serve rejects followers otherwise.
// obsm may be nil.
func NewPrimary(store *storage.Store, obsm *obs.Metrics) *Primary {
	return &Primary{store: store, obsm: obsm, conns: map[net.Conn]struct{}{}}
}

// Serve accepts follower connections on ln until Close. It returns
// the listener's error (nil after Close).
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return errors.New("repl: primary closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return nil
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.serveConn(conn)
			p.mu.Lock()
			delete(p.conns, conn)
			p.mu.Unlock()
			conn.Close()
		}()
	}
}

// ListenAndServe listens on a TCP address and serves followers.
func (p *Primary) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return p.Serve(ln)
}

// Addr returns the listener address (once Serve has been called).
func (p *Primary) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Close stops accepting, tears down every follower connection, and
// waits for their stream goroutines to exit.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	var conns []net.Conn
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	return err
}

// Status reports the primary's replication state for repl-status and
// the Prometheus endpoint.
func (p *Primary) Status() ipc.ReplStatusRep {
	rep := ipc.ReplStatusRep{Role: "primary", Batches: p.nBatches.Load(),
		Bootstraps: p.nResyncs.Load()}
	if log := p.store.WAL(); log != nil {
		rep.FlushedLSN = uint64(log.Flushed())
	}
	p.mu.Lock()
	rep.Connections = len(p.conns)
	p.mu.Unlock()
	return rep
}

// serveConn drives one follower: handshake, optional bootstrap, then
// the tail loop. The connection's read side is drained by a separate
// goroutine that forwards hello frames (the only thing a follower
// sends) and signals stop on disconnect, so the tail loop can block
// in WaitDurable without pinning a dead connection forever.
func (p *Primary) serveConn(conn net.Conn) {
	log := p.store.WAL()
	if log == nil {
		sendErr(conn, "primary is not durable: nothing to ship")
		return
	}

	type hello struct {
		mode   byte
		resume wal.LSN
	}
	stop := make(chan struct{})
	helloCh := make(chan hello, 1)
	go func() {
		defer close(stop)
		for {
			typ, payload, err := ipc.ReadFrame(conn)
			if err != nil {
				return
			}
			if typ != frameHello {
				return // protocol violation; stop tears the stream down
			}
			mode, resume, err := parseHello(payload)
			if err != nil {
				return
			}
			select {
			case helloCh <- hello{mode, resume}:
			default:
				return // follower sent a hello we were not waiting for
			}
		}
	}()

	waitHello := func() (hello, bool) {
		select {
		case h := <-helloCh:
			return h, true
		case <-stop:
			return hello{}, false
		}
	}

	h, ok := waitHello()
	if !ok {
		return
	}
	for {
		if h.mode == modeBootstrap || h.resume < log.Base() {
			p.nResyncs.Add(1)
			if err := p.sendBootstrap(conn); err != nil {
				return
			}
			// The follower installs the chain, then re-handshakes with
			// the watermark it achieved.
			if h, ok = waitHello(); !ok {
				return
			}
			continue
		}
		if h.resume > log.End() {
			sendErr(conn, fmt.Sprintf("resume %d is beyond the log end %d (diverged follower?)",
				h.resume, log.End()))
			return
		}
		if err := ipc.WriteFrame(conn, frameOK, encodeOK(h.resume)); err != nil {
			return
		}
		truncated, err := p.tail(conn, log, h.resume, stop)
		if err != nil || !truncated {
			return
		}
		// A checkpoint truncated the WAL past this follower mid-stream:
		// fall back to a fresh bootstrap on the same connection.
		h = hello{mode: modeBootstrap}
	}
}

// tail streams batches from resume until the connection dies or the
// WAL is truncated past the follower (returned as truncated=true so
// the caller re-bootstraps it).
func (p *Primary) tail(conn net.Conn, log *wal.Log, from wal.LSN, stop <-chan struct{}) (truncated bool, err error) {
	for {
		frames, next, err := log.ReadDurable(from, streamBudget)
		if errors.Is(err, wal.ErrTruncated) {
			return true, nil
		}
		if err != nil {
			sendErr(conn, err.Error())
			return false, err
		}
		if len(frames) == 0 {
			if err := p.idle(conn, log, from, stop); err != nil {
				return false, err
			}
			continue
		}
		for _, fr := range frames {
			payload := encodeBatch(fr.LSN, time.Now().UnixNano(), fr.Payload)
			if err := ipc.WriteFrame(conn, frameBatch, payload); err != nil {
				return false, err
			}
			p.nBatches.Add(1)
			p.obsm.ObserveN(obs.HReplBatch, uint64(len(fr.Payload)))
		}
		from = next
	}
}

// idle parks until the durable frontier passes from, sending
// heartbeats so the follower keeps measuring lag (and noticing a
// dead primary) while nothing commits.
func (p *Primary) idle(conn net.Conn, log *wal.Log, from wal.LSN, stop <-chan struct{}) error {
	type res struct {
		err error
	}
	done := make(chan res, 1)
	go func() {
		_, err := log.WaitDurable(from, stop)
		done <- res{err}
	}()
	tick := time.NewTicker(heartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case r := <-done:
			if errors.Is(r.err, wal.ErrWaitCanceled) {
				return r.err // follower hung up
			}
			return r.err // nil (new bytes) or ErrClosed (store shut down)
		case <-tick.C:
			hb := encodeHeartbeat(log.Flushed(), time.Now().UnixNano())
			if err := ipc.WriteFrame(conn, frameHeartbeat, hb); err != nil {
				return err
			}
		}
	}
}

// sendBootstrap ships the primary's snapshot chain. The file set is
// read optimistically: a checkpoint may rewrite or delete chain files
// between listing and reading, in which case the read fails and the
// whole set is re-listed — the shipped set is always a byte-complete
// copy of files that coexisted, and the follower's own chain
// validation decides how far it links up.
func (p *Primary) sendBootstrap(conn net.Conn) error {
	dir := p.store.Dir()
	var names []string
	var blobs [][]byte
	for attempt := 0; ; attempt++ {
		ns, err := storage.ChainFileNames(dir)
		if err != nil {
			sendErr(conn, err.Error())
			return err
		}
		ok := true
		blobs = blobs[:0]
		for _, n := range ns {
			b, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				ok = false
				break
			}
			blobs = append(blobs, b)
		}
		if ok {
			names = ns
			break
		}
		if attempt == 4 {
			err := errors.New("repl: chain files kept changing during bootstrap")
			sendErr(conn, err.Error())
			return err
		}
	}
	if err := ipc.WriteFrame(conn, frameResync, nil); err != nil {
		return err
	}
	for i, name := range names {
		blob := blobs[i]
		for off := 0; ; off += fileChunkSize {
			end := off + fileChunkSize
			if end > len(blob) {
				end = len(blob)
			}
			if err := ipc.WriteFrame(conn, frameFile, encodeFile(name, blob[off:end])); err != nil {
				return err
			}
			if end == len(blob) {
				break
			}
		}
	}
	return ipc.WriteFrame(conn, frameChainEnd, nil)
}
