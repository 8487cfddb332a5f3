package plan

// Stage fan-out. The executor is a staged, materialized pipeline: each
// stage consumes the previous stage's batch and produces the next
// (exec.go). This file is what a stage with more than one worker adds:
// the fan-out, the range-parallel base scan, the partitioned hash build
// and the merge of the workers' runs.
//
// Correctness rides on three facts (see the package comment): tuple
// production order is free, because the canonical slot-wise OID order
// is restored before emission — by concatenating or merging the
// workers' sorted runs where there are few, by Execute's sort
// otherwise; access paths never decide membership, so residual
// re-filtering in any worker is exactly the oracle's check; and every
// worker of a base scan or hash build reads at ONE pinned snapshot LSN
// over OID ranges cut once for the fan-out, so the union of the range
// scans equals one serial scan of that snapshot. Each worker takes a
// contiguous block of the ranges: its output is one ascending run, and
// the outputs follow one another in OID order. Aggregates stay bit-identical
// through query.Aggregate.Merge: the workers' partial states are the
// answer only when merging them is exact, else the ordered tuples are
// accumulated serially.

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/obs"
	"repro/internal/query"
)

// RangeScanner is the optional reader surface for range-parallel extent
// scans. The object manager's readers implement it against the store's
// class extents; a reader without it gets base scans and hash builds on
// one worker.
type RangeScanner interface {
	// PinRanges returns the snapshot LSN every range worker must read
	// at, ascending cut points that split class's OID space into at
	// most n ranges ([0, cuts[0]), [cuts[0], cuts[1]), ..., [cuts[last],
	// ∞)), and a release for the backing pin. Pinning once for the
	// whole fan-out is the parallel scan's consistency contract: all
	// workers observe one committed state no matter how commits race.
	PinRanges(class string, n int) (lsn uint64, cuts []datum.OID, release func())
	// ScanClassRange visits the class's live objects with lo <= OID < hi
	// (hi 0: unbounded) at the given LSN, in OID order.
	ScanClassRange(class string, lo, hi datum.OID, lsn uint64, fn func(datum.OID, datum.Row) bool) error
}

// rangesPerWorker is how many ranges a fan-out cuts per worker. A
// worker yields between ranges (see fanOut), so more ranges mean more
// chances for a firing to run while a big scan is in progress.
const rangesPerWorker = 8

// --- partitioned hash table ---

// hashTable is the hash-join build side, partitioned by FNV-1a of the
// join key so parallel build workers merge partition-disjoint (and
// probe workers read lock-free — the table is immutable after build).
// Keys are datum key bytes (Value.AppendKey) in a buffer the caller
// reuses: a probe allocates nothing, a build one string per distinct key.
type hashTable struct {
	mask  uint32
	parts []hashPart
}

// hashPart chains the candidates of one key through an entry arena, in
// insertion order, so a bucket costs no allocation of its own.
type hashPart struct {
	heads map[string]int32 // key → first entry of its chain
	ents  []hashEnt
}

type hashEnt struct {
	c    cand
	next int32 // next entry of the chain, -1 at its end
	last int32 // in a chain's first entry: the chain's last
}

func newHashTable(nparts int) *hashTable {
	n := 1
	for n < nparts {
		n <<= 1
	}
	parts := make([]hashPart, n)
	for i := range parts {
		parts[i].heads = map[string]int32{}
	}
	return &hashTable{mask: uint32(n - 1), parts: parts}
}

// part returns the partition of key: FNV-1a over the key bytes.
func (h *hashTable) part(key []byte) *hashPart {
	sum := uint32(2166136261)
	for _, b := range key {
		sum = (sum ^ uint32(b)) * 16777619
	}
	return &h.parts[sum&h.mask]
}

// push appends c to the chain that starts at head, or starts one when
// head is negative, and returns the chain's head.
func (p *hashPart) push(head int32, c cand) int32 {
	n := int32(len(p.ents))
	p.ents = append(room(p.ents, 1), hashEnt{c: c, next: -1, last: n})
	if head < 0 {
		return n
	}
	p.ents[p.ents[head].last].next = n
	p.ents[head].last = n
	return head
}

func (p *hashPart) add(key []byte, c cand) {
	if head, ok := p.heads[string(key)]; ok {
		p.push(head, c)
	} else {
		p.heads[string(key)] = p.push(-1, c)
	}
}

// appendTo appends the candidates filed under key to dst.
func (h *hashTable) appendTo(dst []cand, key []byte) []cand {
	p := h.part(key)
	if head, ok := p.heads[string(key)]; ok {
		for i := head; i >= 0; i = p.ents[i].next {
			dst = append(dst, p.ents[i].c)
		}
	}
	return dst
}

// --- fan-out ---

// stopper cancels a fan-out: the first error sets it, and workers abort
// their scans on the next stopped() poll.
type stopper struct {
	stop atomic.Bool
	once sync.Once
	err  error
}

func (st *stopper) fail(err error) {
	st.once.Do(func() {
		st.err = err
		st.stop.Store(true)
	})
}

func (st *stopper) stopped() bool { return st.stop.Load() }

// fanOut runs workers goroutines to completion. Each writes what it
// produces — a batch, hash partitions — to its own slot of a
// caller-owned slice; the wait orders those writes before fanOut
// returns. worker must poll stop.stopped() and return promptly once
// cancelled; the first error wins. Between granules of work (an OID
// range, a chunk of outer tuples) a worker also yields the processor: a scan
// that held every P for its whole length would make a signal's firing
// wait for it, and event-to-action latency is what an active DBMS is
// for. The observer gets the width and the skew between the first and
// the last worker to finish: how long the caller idled on stragglers.
func (p *Plan) fanOut(workers int, worker func(w int, stop *stopper) error) error {
	stop := &stopper{}
	done := make([]time.Time, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := worker(w, stop); err != nil {
				stop.fail(err)
			}
			done[w] = time.Now()
		}()
	}
	wg.Wait()
	if p.obs != nil {
		p.obs.ObserveN(obs.HPlanFanout, uint64(workers))
		first, last := slices.MinFunc(done, time.Time.Compare), slices.MaxFunc(done, time.Time.Compare)
		p.obs.Observe(obs.HPlanGatherWait, last.Sub(first))
	}
	return stop.err
}

// maxRuns bounds the sorted runs mergeRuns merges: the widest fan-out.
const maxRuns = maxParallelism

// run is an ascending stretch of a worker's output: tuples i..end of b.
// oid caches the head tuple's first OID, which decides most comparisons.
type run struct {
	b      *batch
	i, end int
	oid    datum.OID
}

// mergeRuns flattens the workers' outputs. A range scan ascends and a
// join worker follows the outer order, so a stage that joins in FROM
// order outputs a few runs already in canonical order. Runs that follow
// one another (a base scan's blocks of ranges) are concatenated;
// interleaved ones are merged — the smallest run head per tuple, a
// linear pass that at this width costs what a heap would. Outputs too
// scrambled for that (a reordered join) are concatenated and left to
// Execute's sort.
func mergeRuns(outs []batch) batch {
	var runs []run
	n := 0
	for k := range outs {
		b := &outs[k]
		n += b.n
		for i := 0; i < b.n && len(runs) <= maxRuns; {
			end := i + 1
			for end < b.n && compareTuples(b.tuple(end-1), b.tuple(end)) <= 0 {
				end++
			}
			runs, i = append(runs, run{b, i, end, b.cells[i*b.w].OID}), end
		}
	}
	out := batch{w: outs[0].w, cells: make([]cand, 0, n*outs[0].w)}
	if outs[0].rows != nil {
		out.rows = make([][]datum.Value, 0, n)
	}
	if len(runs) > maxRuns || consecutive(runs) {
		for k := range outs {
			out.cells, out.rows = append(out.cells, outs[k].cells...), append(out.rows, outs[k].rows...)
		}
		out.n = n
		return out
	}
	for len(runs) > 0 {
		m := &runs[0]
		for k := 1; k < len(runs); k++ {
			if r := &runs[k]; r.oid < m.oid || r.oid == m.oid && compareTuples(r.b.tuple(r.i), m.b.tuple(m.i)) < 0 {
				m = r
			}
		}
		out.take(m.b, m.i)
		if m.i++; m.i < m.end {
			m.oid = m.b.cells[m.i*m.b.w].OID
		} else {
			*m = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	return out
}

// consecutive reports whether each run starts at or after the end of
// the run before it, so that their concatenation is in order.
func consecutive(runs []run) bool {
	for k := 1; k < len(runs); k++ {
		prev := &runs[k-1]
		if compareTuples(prev.b.tuple(prev.end-1), runs[k].b.tuple(runs[k].i)) > 0 {
			return false
		}
	}
	return true
}

// --- range-parallel scans ---

// rangeBlocks deals the ranges that cuts make (see RangeScanner) to at
// most workers workers, a contiguous block each, given as the block's
// bounds: the worker scans [b[k], b[k+1]) for every k, with 0 as the
// open upper bound of the last range.
func rangeBlocks(cuts []datum.OID, workers int) [][]datum.OID {
	bounds := slices.Concat([]datum.OID{0}, cuts, []datum.OID{0})
	n := len(bounds) - 1
	blocks := make([][]datum.OID, min(workers, n))
	for w := range blocks {
		blocks[w] = bounds[w*n/len(blocks) : (w+1)*n/len(blocks)+1]
	}
	return blocks
}

// scanBlock visits the class's objects in one worker's block of ranges
// at lsn, in OID order, until fn declines or the fan-out is cancelled.
func scanBlock(rs RangeScanner, stop *stopper, bounds []datum.OID, class string, lsn uint64,
	fn func(datum.OID, datum.Row) bool) error {

	done := false
	for k := 0; k+1 < len(bounds) && !done && !stop.stopped(); k++ {
		err := rs.ScanClassRange(class, bounds[k], bounds[k+1], lsn, func(oid datum.OID, row datum.Row) bool {
			done = !fn(oid, row)
			return !done
		})
		if err != nil {
			return err
		}
		runtime.Gosched() // see fanOut
	}
	return nil
}

// parallelBase is the first stage's range-parallel specialisation: the
// extent scan fans out over blocks of OID ranges, all pinned at one
// snapshot LSN. Each worker applies the step's residuals and keeps the
// surviving tuples, one ascending run per worker.
func (p *Plan) parallelBase(s *step, rs RangeScanner, ev tuple) (batch, error) {
	lsn, cuts, release := rs.PinRanges(s.from.Class, s.par*rangesPerWorker)
	defer release()
	blocks := rangeBlocks(cuts, s.par)
	outs := make([]batch, len(blocks))
	err := p.fanOut(len(blocks), func(w int, stop *stopper) error {
		out, t := p.newSink(s, s.extent/float64(len(blocks))), append(make(tuple, len(p.vars)), ev...)
		var evalErr error
		err := scanBlock(rs, stop, blocks[w], s.from.Class, lsn, func(oid datum.OID, row datum.Row) bool {
			t[s.slot] = cand{OID: oid, Row: row}
			ok, err := s.passes(t)
			if ok {
				err = out.add(t)
			}
			evalErr = err
			return err == nil
		})
		outs[w] = out.batch
		return cmp.Or(err, evalErr)
	})
	return p.settle(outs, err)
}

// --- partitioned hash build ---

// fillHash runs scan, filing every object it visits in t under its
// build key. Null and missing keys never equal anything and are left
// out; a hard key error ends the scan.
func (p *Plan) fillHash(s *step, t *hashTable,
	scan func(fn func(datum.OID, datum.Row) bool) error) error {

	var keyErr error
	var key []byte
	tup := make(tuple, len(p.vars))
	err := scan(func(oid datum.OID, row datum.Row) bool {
		tup[s.slot] = cand{OID: oid, Row: row}
		v, err := s.buildFn(tup)
		if err == nil && !v.IsNull() {
			key = v.AppendKey(key[:0])
			t.part(key).add(key, tup[s.slot])
		}
		keyErr = hard(err)
		return keyErr == nil
	})
	return cmp.Or(keyErr, err)
}

// buildHash constructs the build side of a hash step, partitioned
// s.par ways. One worker is one inline ScanClass. More fan out over
// blocks of OID ranges at one pinned LSN, each filling a private table,
// then merge per partition — merge workers own disjoint partitions, so
// the whole build is lock-free.
func (p *Plan) buildHash(r query.Reader, s *step) (*hashTable, error) {
	rs, ranged := r.(RangeScanner)
	if !ranged || s.par <= 1 {
		t := newHashTable(s.par)
		return t, p.fillHash(s, t, func(fn func(datum.OID, datum.Row) bool) error {
			return r.ScanClass(s.from.Class, fn)
		})
	}

	lsn, cuts, release := rs.PinRanges(s.from.Class, s.par*rangesPerWorker)
	defer release()
	blocks := rangeBlocks(cuts, s.par)
	workers := len(blocks)
	locals := make([]*hashTable, workers)
	err := p.fanOut(workers, func(w int, stop *stopper) error {
		locals[w] = newHashTable(s.par)
		return p.fillHash(s, locals[w], func(fn func(datum.OID, datum.Row) bool) error {
			return scanBlock(rs, stop, blocks[w], s.from.Class, lsn, fn)
		})
	})
	if err != nil {
		return nil, err
	}

	merged := newHashTable(s.par)
	mworkers := min(workers, len(merged.parts))
	var mwg sync.WaitGroup
	for w := 0; w < mworkers; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			for pi := w; pi < len(merged.parts); pi += mworkers {
				dst, n := &merged.parts[pi], 0
				for _, lt := range locals {
					n += len(lt.parts[pi].ents)
				}
				dst.ents = make([]hashEnt, 0, n)
				for _, lt := range locals {
					src := &lt.parts[pi]
					for key, from := range src.heads {
						head, ok := dst.heads[key]
						if !ok {
							head = -1
						}
						for i := from; i >= 0; i = src.ents[i].next {
							head = dst.push(head, src.ents[i].c)
						}
						dst.heads[key] = head
					}
				}
			}
		}(w)
	}
	mwg.Wait()
	return merged, nil
}
