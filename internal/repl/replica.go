package repl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/failpoint"
	"repro/internal/ipc"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrNotBootstrapped is returned for reads before the first chain
// ship has completed.
var ErrNotBootstrapped = errors.New("repl: replica has no store yet (still bootstrapping)")

// ErrPromoted is returned once Promote has detached the replica.
var ErrPromoted = errors.New("repl: replica was promoted")

// currentFile is the durable pointer naming the live data generation
// inside the replica root directory.
const currentFile = "CURRENT"

// Options configures a replica.
type Options struct {
	// Dir is the replica root. It holds the CURRENT pointer plus one
	// data-NNNNNN directory per bootstrap generation; the live one is
	// a normal store directory (chain files + WAL).
	Dir string
	// PrimaryAddr is the primary's -repl-listen address.
	PrimaryAddr string
	// NoSync disables fsync on the replica's own WAL.
	NoSync bool
	// CheckpointAfterBytes triggers the replica's own checkpoints,
	// which bound its local WAL exactly as on a primary.
	CheckpointAfterBytes uint64
	// Obs receives the replica's histograms (repl_lag and the store's
	// usual set); nil builds a default-enabled one.
	Obs *obs.Obs
	// Dial overrides the connection factory (tests); nil means TCP.
	Dial func(addr string) (net.Conn, error)
	// ReconnectDelay is the pause between connection attempts
	// (default 100ms).
	ReconnectDelay time.Duration
}

// Replica tails a primary's WAL stream into its own store and serves
// read-only traffic at its applied-LSN frontier. The applied frontier
// is durable for free: each batch is appended to the replica's own
// WAL (base-aligned with the primary's logical LSNs) before it is
// installed, so the local log end IS the resume point after a crash —
// the same log-then-install discipline the primary's commits use.
type Replica struct {
	opts Options
	o    *obs.Obs
	txns *txn.Manager

	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	store    *storage.Store
	objects  *object.Manager
	objSeq   uint64
	gen      int
	dataDir  string
	state    string
	conn     net.Conn // live stream connection, closed by Close/Promote
	promoted bool
	closed   bool
	asyncErr error

	applied     atomic.Uint64 // wal.LSN; never regresses
	flushedSeen atomic.Uint64 // primary's durable frontier, last heard
	lagNanos    atomic.Int64  // last batch's send→apply latency

	nBatches    atomic.Uint64
	nReconnects atomic.Uint64
	nBootstraps atomic.Uint64
}

// Open starts a replica: it reopens the current data generation if
// one exists (recovering through the store's normal replay path) and
// launches the background stream loop against the primary.
func Open(opts Options) (*Replica, error) {
	if opts.Dir == "" {
		return nil, errors.New("repl: replica needs a directory")
	}
	if opts.PrimaryAddr == "" {
		return nil, errors.New("repl: replica needs a primary address")
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if opts.ReconnectDelay <= 0 {
		opts.ReconnectDelay = 100 * time.Millisecond
	}
	if opts.Obs == nil {
		opts.Obs = obs.New(obs.Options{})
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	txns, _ := txn.NewSystem()
	r := &Replica{opts: opts, o: opts.Obs, txns: txns,
		stop: make(chan struct{}), state: "connecting"}

	if name, err := readCurrent(opts.Dir); err != nil {
		return nil, err
	} else if name != "" {
		dataDir := filepath.Join(opts.Dir, name)
		st, err := r.openStoreAt(dataDir)
		if err != nil {
			return nil, fmt.Errorf("repl: reopen %s: %w", dataDir, err)
		}
		r.store, r.dataDir = st, dataDir
		r.gen = genOf(name)
		r.applied.Store(uint64(st.WAL().End()))
	}

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.run()
	}()
	return r, nil
}

// openStoreAt opens one data generation as a store. The replica's txn
// manager is only a source of read-transaction IDs; the store is not
// registered as a commit participant because nothing commits through
// the transaction path here — batches arrive via ApplyReplicated.
func (r *Replica) openStoreAt(dir string) (*storage.Store, error) {
	return storage.Open(r.txns, storage.Options{
		Dir: dir, NoSync: r.opts.NoSync,
		CheckpointAfterBytes: r.opts.CheckpointAfterBytes,
		Obs:                  r.o.Metrics(),
		OnAsyncError: func(err error) {
			r.mu.Lock()
			r.asyncErr = err
			r.mu.Unlock()
		},
	})
}

// Close stops the stream loop and closes the store.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	close(r.stop)
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
	r.mu.Lock()
	st := r.store
	r.store, r.objects = nil, nil
	r.mu.Unlock()
	if st != nil {
		return st.Close()
	}
	return nil
}

// Promote detaches the replica from its primary and hands back the
// live data directory: the stream loop is stopped, the store is
// closed (flushing its WAL), and the caller reopens the directory as
// a normal writable engine — recovery replays the applied suffix, so
// the promoted store is exactly the replicated state at the applied
// frontier. Reads through this Replica fail afterwards.
func (r *Replica) Promote() (string, error) {
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		return "", ErrPromoted
	}
	if r.closed {
		r.mu.Unlock()
		return "", errors.New("repl: replica closed")
	}
	if r.store == nil {
		r.mu.Unlock()
		return "", ErrNotBootstrapped
	}
	r.promoted = true
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	close(r.stop)
	if conn != nil {
		conn.Close()
	}
	r.wg.Wait()
	r.mu.Lock()
	st, dir := r.store, r.dataDir
	r.store, r.objects = nil, nil
	r.mu.Unlock()
	if err := st.Close(); err != nil {
		return "", err
	}
	return dir, nil
}

// AppliedLSN returns the replica's applied frontier: every commit
// below it is installed and readable. It never regresses, across
// reconnects and re-bootstraps alike.
func (r *Replica) AppliedLSN() wal.LSN { return wal.LSN(r.applied.Load()) }

// WaitApplied blocks until the applied frontier reaches lsn or the
// timeout expires.
func (r *Replica) WaitApplied(lsn wal.LSN, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if r.AppliedLSN() >= lsn {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Status reports the replica's replication state.
func (r *Replica) Status() ipc.ReplStatusRep {
	rep := ipc.ReplStatusRep{
		Role:       "replica",
		Primary:    r.opts.PrimaryAddr,
		AppliedLSN: r.applied.Load(),
		FlushedLSN: r.flushedSeen.Load(),
		LagNanos:   r.lagNanos.Load(),
		Batches:    r.nBatches.Load(),
		Reconnects: r.nReconnects.Load(),
		Bootstraps: r.nBootstraps.Load(),
	}
	if rep.FlushedLSN > rep.AppliedLSN {
		rep.LagBytes = rep.FlushedLSN - rep.AppliedLSN
	}
	r.mu.Lock()
	rep.State = r.state
	rep.Generation = r.gen
	if r.promoted {
		rep.Role = "promoted"
	}
	r.mu.Unlock()
	return rep
}

// AsyncError returns the last error recorded by the replica's store
// background work (size-triggered checkpoints), if any.
func (r *Replica) AsyncError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.asyncErr
}

// --- read path ---

// reader returns the object manager over the current store, rebuilt
// lazily whenever the replicated class catalog changes (the catalog
// lives in the __class system class, so its mod sequence tells us
// when a DefineClass arrived from the primary).
func (r *Replica) reader() (*object.Manager, *txn.Manager, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return nil, nil, ErrPromoted
	}
	if r.store == nil {
		return nil, nil, ErrNotBootstrapped
	}
	seq := r.store.ModSeq(object.MetaClass)
	if r.objects == nil || seq != r.objSeq {
		r.objects = object.NewManager(r.store, nil)
		r.objSeq = seq
	}
	return r.objects, r.txns, nil
}

// Begin starts a read transaction for a remote session. Reads still
// pin their own snapshots; the transaction only gives the session the
// protocol's Begin/op/Commit shape.
func (r *Replica) Begin() (*txn.Txn, error) {
	_, txns, err := r.reader()
	if err != nil {
		return nil, err
	}
	return txns.Begin(), nil
}

// Obs returns the replica's observability: repl_lag, the store's
// histograms, and what a server in front of the replica records.
func (r *Replica) Obs() *obs.Obs { return r.o }

// Query evaluates a read-only select against one pinned MVCC
// snapshot, returning the result and the snapshot's commit LSN.
func (r *Replica) Query(src string, args map[string]datum.Value) (*query.Result, uint64, error) {
	m, txns, err := r.reader()
	if err != nil {
		return nil, 0, err
	}
	q, err := query.Parse(src)
	if err != nil {
		return nil, 0, err
	}
	t := txns.Begin()
	defer t.Commit()
	sr := m.SnapshotReader(t)
	defer sr.Close()
	// Planner-backed execution, same as the primary's query path: the
	// snapshot reader doubles as the statistics catalog.
	res, err := plan.Run(q, sr, args, plan.Options{})
	if err != nil {
		return nil, 0, err
	}
	return res, sr.SnapshotLSN(), nil
}

// Get fetches one object at the newest published snapshot.
func (r *Replica) Get(oid datum.OID) (storage.Record, error) {
	m, txns, err := r.reader()
	if err != nil {
		return storage.Record{}, err
	}
	t := txns.Begin()
	defer t.Commit()
	rec, err := m.Get(t, oid)
	if err != nil {
		return storage.Record{}, fmt.Errorf("repl: no object %d", oid)
	}
	return rec, nil
}

// Classes lists the replicated class catalog.
func (r *Replica) Classes() ([]object.Class, error) {
	m, txns, err := r.reader()
	if err != nil {
		return nil, err
	}
	t := txns.Begin()
	defer t.Commit()
	return m.Classes(t)
}

// Store exposes the current store for tests and stats; nil before the
// first bootstrap. The swap during a re-bootstrap leaves old stores'
// in-memory tier intact, so a caller holding one across the swap
// still reads consistent (if stale) data.
func (r *Replica) Store() *storage.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// --- stream loop ---

func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *Replica) setState(s string) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

func (r *Replica) run() {
	first := true
	for !r.stopped() {
		if !first {
			r.nReconnects.Add(1)
			select {
			case <-time.After(r.opts.ReconnectDelay):
			case <-r.stop:
				return
			}
		}
		first = false
		r.setState("connecting")
		conn, err := r.opts.Dial(r.opts.PrimaryAddr)
		if err != nil {
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conn = conn
		r.mu.Unlock()
		r.stream(conn) // errors surface as a reconnect
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
		conn.Close()
	}
}

// hello reports the replica's resume point: the local WAL end when a
// store exists, else a bootstrap request.
func (r *Replica) hello(conn net.Conn) error {
	r.mu.Lock()
	st := r.store
	r.mu.Unlock()
	if st == nil {
		return ipc.WriteFrame(conn, frameHello, encodeHello(modeBootstrap, 0))
	}
	return ipc.WriteFrame(conn, frameHello, encodeHello(modeResume, st.WAL().End()))
}

// stream drives one connection: handshake, then frames until error.
func (r *Replica) stream(conn net.Conn) error {
	if err := r.hello(conn); err != nil {
		return err
	}
	for {
		typ, payload, err := ipc.ReadFrame(conn)
		if err != nil {
			return err
		}
		switch typ {
		case frameOK:
			from, err := parseOK(payload)
			if err != nil {
				return err
			}
			if got := r.AppliedLSN(); from != got && !(got == 0 && r.Store() == nil) {
				return fmt.Errorf("repl: primary acked resume %d, expected %d", from, got)
			}
			r.setState("streaming")

		case frameResync:
			r.setState("bootstrapping")
			if err := r.bootstrap(conn); err != nil {
				return err
			}
			if err := r.hello(conn); err != nil {
				return err
			}

		case frameBatch:
			lsn, sentNanos, redo, err := parseBatch(payload)
			if err != nil {
				return err
			}
			st := r.Store()
			if st == nil {
				return errors.New("repl: batch before bootstrap")
			}
			end, err := st.ApplyReplicated(lsn, redo)
			if err != nil {
				return err
			}
			r.advanceApplied(uint64(end))
			r.nBatches.Add(1)
			lag := time.Duration(time.Now().UnixNano() - sentNanos)
			if lag > 0 {
				r.lagNanos.Store(int64(lag))
				r.o.Metrics().Observe(obs.HReplLag, lag)
			}

		case frameHeartbeat:
			flushed, sentNanos, err := parseHeartbeat(payload)
			if err != nil {
				return err
			}
			r.flushedSeen.Store(uint64(flushed))
			if wal.LSN(flushed) <= r.AppliedLSN() {
				// Caught up: the transit latency of the heartbeat itself
				// is the best available lag estimate.
				if lag := time.Now().UnixNano() - sentNanos; lag > 0 {
					r.lagNanos.Store(lag)
				}
			}

		case frameErr:
			return fmt.Errorf("repl: primary: %s", string(payload))

		default:
			return fmt.Errorf("repl: unexpected frame type %d", typ)
		}
	}
}

// advanceApplied moves the applied frontier monotonically.
func (r *Replica) advanceApplied(lsn uint64) {
	for {
		cur := r.applied.Load()
		if lsn <= cur || r.applied.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// bootstrap receives a shipped snapshot chain into a fresh data
// generation, opens a store over it (which validates the chain and
// starts the store's WAL at the achieved watermark), and atomically
// flips the CURRENT pointer to it. Old state survives any crash
// before the flip; readers swap to the new store only after it is
// fully built, and the applied frontier only ever jumps forward (the
// shipped watermark is at or above the WAL base that forced the
// resync, which is above our stale frontier).
func (r *Replica) bootstrap(conn net.Conn) error {
	r.nBootstraps.Add(1)
	r.mu.Lock()
	newGen := r.gen + 1
	r.mu.Unlock()
	name := fmt.Sprintf("data-%06d", newGen)
	newDir := filepath.Join(r.opts.Dir, name)
	if err := os.RemoveAll(newDir); err != nil {
		return err
	}
	if err := os.MkdirAll(newDir, 0o755); err != nil {
		return err
	}

	if err := r.receiveChain(conn, newDir); err != nil {
		os.RemoveAll(newDir)
		return err
	}

	// Opening the store validates the chain and starts its empty WAL
	// at the achieved watermark, so the log end is that watermark.
	newStore, err := r.openStoreAt(newDir)
	if err != nil {
		os.RemoveAll(newDir)
		return err
	}
	watermark := newStore.WAL().End()
	if uint64(watermark) < r.applied.Load() {
		// A racing compaction shipped a chain older than what we had
		// already applied; installing it would regress reads. Drop it
		// and re-handshake — the next resync ships the newer chain.
		newStore.Close()
		os.RemoveAll(newDir)
		return fmt.Errorf("repl: shipped chain watermark %d below applied %d", watermark, r.AppliedLSN())
	}

	failpoint.Hit("repl.beforeCurrent")
	if err := writeCurrent(r.opts.Dir, name); err != nil {
		newStore.Close()
		os.RemoveAll(newDir)
		return err
	}

	r.mu.Lock()
	old, oldDir := r.store, r.dataDir
	r.store, r.dataDir, r.gen = newStore, newDir, newGen
	r.objects = nil
	r.mu.Unlock()
	r.advanceApplied(uint64(watermark))
	if old != nil {
		old.Close() // in-memory tier stays readable for raced readers
		os.RemoveAll(oldDir)
	}
	return nil
}

// receiveChain writes file frames into dir until chainEnd. Each file
// is fsynced on close and the directory once at the end, so a crash
// after the CURRENT flip can never find a torn chain behind it.
func (r *Replica) receiveChain(conn net.Conn, dir string) error {
	var cur *os.File
	var curName string
	closeCur := func() error {
		if cur == nil {
			return nil
		}
		if err := cur.Sync(); err != nil {
			cur.Close()
			return err
		}
		err := cur.Close()
		cur = nil
		failpoint.Hit("repl.midBootstrap")
		return err
	}
	for {
		typ, payload, err := ipc.ReadFrame(conn)
		if err != nil {
			closeCur()
			return err
		}
		switch typ {
		case frameFile:
			name, chunk, err := parseFile(payload)
			if err != nil {
				closeCur()
				return err
			}
			if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
				closeCur()
				return fmt.Errorf("repl: unsafe chain file name %q", name)
			}
			if name != curName || cur == nil {
				if err := closeCur(); err != nil {
					return err
				}
				cur, err = os.OpenFile(filepath.Join(dir, name),
					os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
				if err != nil {
					return err
				}
				curName = name
			}
			if _, err := cur.Write(chunk); err != nil {
				closeCur()
				return err
			}
		case frameChainEnd:
			if err := closeCur(); err != nil {
				return err
			}
			return wal.SyncDir(dir)
		case frameHeartbeat:
			// Harmless straggler from the previous tail phase.
		case frameErr:
			closeCur()
			return fmt.Errorf("repl: primary: %s", string(payload))
		default:
			closeCur()
			return fmt.Errorf("repl: unexpected frame %d during bootstrap", typ)
		}
	}
}

// --- CURRENT pointer ---

func readCurrent(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, currentFile))
	if errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(b))
	if name == "" || strings.ContainsAny(name, "/\\") {
		return "", fmt.Errorf("repl: corrupt CURRENT pointer %q", name)
	}
	if _, err := os.Stat(filepath.Join(root, name)); err != nil {
		return "", fmt.Errorf("repl: CURRENT names missing generation %q: %w", name, err)
	}
	return name, nil
}

// writeCurrent durably flips the generation pointer: write a temp
// file, fsync, rename over CURRENT, fsync the directory.
func writeCurrent(root, name string) error {
	tmp := filepath.Join(root, currentFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(name + "\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(root, currentFile)); err != nil {
		return err
	}
	return wal.SyncDir(root)
}

func genOf(name string) int {
	var g int
	fmt.Sscanf(name, "data-%06d", &g)
	return g
}
