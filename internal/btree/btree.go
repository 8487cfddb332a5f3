// Package btree implements an in-memory B+tree keyed by byte-ordered
// strings, used by the storage layer for secondary indexes over the
// order-preserving datum key encoding. Each key maps to a set of
// object identifiers (the index is non-unique: many objects can share
// an attribute value).
//
// The tree is not internally synchronized; the storage layer gives
// each tree a read/write lock of its own (probes read-lock it,
// installs and the version GC write-lock it).
//
// Index entries are maintained with MVCC "add-only at install"
// semantics: committing a new object version inserts its (key, oid)
// pair, but entries for superseded versions are removed later, by the
// version GC (or the commit-time inline trim), and only once no
// surviving chain version still carries the key. A probe therefore
// sees a superset of any snapshot's true matches — old snapshots keep
// finding the rows they can see, and newer readers re-verify each
// candidate against the snapshot-resolved record, so false positives
// are filtered, never returned.
package btree

import (
	"sort"

	"repro/internal/datum"
)

// degree is the maximum number of keys per node. Chosen small enough
// to exercise splits in tests while keeping nodes cache-friendly.
const degree = 32

// Tree is a B+tree from string keys to sets of OIDs.
type Tree struct {
	root *node
	size int // number of (key, oid) pairs
}

type node struct {
	leaf     bool
	keys     []string
	children []*node       // interior only; len = len(keys)+1
	vals     [][]datum.OID // leaf only; parallel to keys, each sorted
	next     *node         // leaf chain for range scans
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len reports the number of (key, oid) pairs in the tree.
func (t *Tree) Len() int { return t.size }

// Insert adds the (key, oid) pair. It reports whether the pair was new
// (false if the exact pair was already present).
func (t *Tree) Insert(key string, oid datum.OID) bool {
	inserted := t.insert(t.root, key, oid)
	if len(t.root.keys) >= degree {
		// Split the root: the tree grows one level.
		left := t.root
		mid, right := split(left)
		t.root = &node{
			keys:     []string{mid},
			children: []*node{left, right},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

func (t *Tree) insert(n *node, key string, oid datum.OID) bool {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			set := n.vals[i]
			j := sort.Search(len(set), func(k int) bool { return set[k] >= oid })
			if j < len(set) && set[j] == oid {
				return false
			}
			set = append(set, 0)
			copy(set[j+1:], set[j:])
			set[j] = oid
			n.vals[i] = set
			return true
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = []datum.OID{oid}
		return true
	}
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		i++ // keys equal to a separator live in the right child
	}
	child := n.children[i]
	inserted := t.insert(child, key, oid)
	if len(child.keys) >= degree {
		mid, right := split(child)
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = mid
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i+1] = right
	}
	return inserted
}

// split divides an overfull node in two, returning the separator key
// and the new right sibling.
func split(n *node) (string, *node) {
	mid := len(n.keys) / 2
	right := &node{leaf: n.leaf}
	if n.leaf {
		right.keys = append(right.keys, n.keys[mid:]...)
		right.vals = append(right.vals, n.vals[mid:]...)
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		right.next = n.next
		n.next = right
		// In a B+tree the separator for a leaf split is the first key
		// of the right sibling (the key stays in the leaf).
		return right.keys[0], right
	}
	sep := n.keys[mid]
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Delete removes the (key, oid) pair, reporting whether it was present.
// Deletion uses lazy rebalancing: nodes may become underfull, but the
// tree remains correct and empty leaves are tolerated; this keeps the
// code simple and is standard for in-memory indexes with churn.
func (t *Tree) Delete(key string, oid datum.OID) bool {
	n := t.root
	for !n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.children[i]
	}
	i := sort.SearchStrings(n.keys, key)
	if i >= len(n.keys) || n.keys[i] != key {
		return false
	}
	set := n.vals[i]
	j := sort.Search(len(set), func(k int) bool { return set[k] >= oid })
	if j >= len(set) || set[j] != oid {
		return false
	}
	set = append(set[:j], set[j+1:]...)
	if len(set) == 0 {
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
	} else {
		n.vals[i] = set
	}
	t.size--
	return true
}

// Get returns the OIDs stored under key, in ascending order. The
// returned slice must not be modified.
func (t *Tree) Get(key string) []datum.OID {
	n := t.root
	for !n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			i++
		}
		n = n.children[i]
	}
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i]
	}
	return nil
}

// Bound describes one end of a range scan.
type Bound struct {
	Key       string
	Inclusive bool
	Unbounded bool
}

// Include returns an inclusive bound at key.
func Include(key string) Bound { return Bound{Key: key, Inclusive: true} }

// Exclude returns an exclusive bound at key.
func Exclude(key string) Bound { return Bound{Key: key} }

// Open returns an unbounded end.
func Open() Bound { return Bound{Unbounded: true} }

// Scan visits every (key, oid) pair with lo <= key <= hi (subject to
// the bounds' inclusivity) in ascending key order, calling fn for each
// pair. Scanning stops early if fn returns false.
func (t *Tree) Scan(lo, hi Bound, fn func(key string, oid datum.OID) bool) {
	n := t.root
	start := ""
	if !lo.Unbounded {
		start = lo.Key
	}
	for !n.leaf {
		i := sort.SearchStrings(n.keys, start)
		if i < len(n.keys) && n.keys[i] == start {
			i++
		}
		n = n.children[i]
	}
	for ; n != nil; n = n.next {
		for i, k := range n.keys {
			if !lo.Unbounded {
				if k < lo.Key || (!lo.Inclusive && k == lo.Key) {
					continue
				}
			}
			if !hi.Unbounded {
				if k > hi.Key || (!hi.Inclusive && k == hi.Key) {
					return
				}
			}
			for _, oid := range n.vals[i] {
				if !fn(k, oid) {
					return
				}
			}
		}
	}
}

// Keys returns all distinct keys in ascending order. Intended for
// tests and diagnostics.
func (t *Tree) Keys() []string {
	var out []string
	t.Scan(Open(), Open(), func(k string, _ datum.OID) bool {
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
		return true
	})
	return out
}

// depth returns the height of the tree (1 for a lone leaf). Used by
// invariant checks in tests.
func (t *Tree) depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants walks the whole tree verifying structural invariants
// and returns a description of the first violation, or "". Exposed to
// the package tests via export_test.go.
func (t *Tree) checkInvariants() string {
	var leafDepths []int
	var walk func(n *node, depth int, lo, hi string, haveLo, haveHi bool) string
	walk = func(n *node, depth int, lo, hi string, haveLo, haveHi bool) string {
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return "keys out of order within node"
			}
		}
		for _, k := range n.keys {
			if haveLo && k < lo {
				return "key below subtree lower bound"
			}
			if haveHi && k >= hi {
				return "key at or above subtree upper bound"
			}
		}
		if n.leaf {
			if len(n.vals) != len(n.keys) {
				return "leaf vals/keys length mismatch"
			}
			for _, set := range n.vals {
				if len(set) == 0 {
					return "empty OID set retained in leaf"
				}
				for i := 1; i < len(set); i++ {
					if set[i-1] >= set[i] {
						return "OID set not strictly ascending"
					}
				}
			}
			leafDepths = append(leafDepths, depth)
			return ""
		}
		if len(n.children) != len(n.keys)+1 {
			return "interior children/keys length mismatch"
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			cHaveLo, cHaveHi := haveLo, haveHi
			if i > 0 {
				clo, cHaveLo = n.keys[i-1], true
			}
			if i < len(n.keys) {
				chi, cHaveHi = n.keys[i], true
			}
			if msg := walk(c, depth+1, clo, chi, cHaveLo, cHaveHi); msg != "" {
				return msg
			}
		}
		return ""
	}
	if msg := walk(t.root, 1, "", "", false, false); msg != "" {
		return msg
	}
	for _, d := range leafDepths {
		if d != leafDepths[0] {
			return "leaves at unequal depth"
		}
	}
	// The leaf chain must visit exactly the leaves, left to right.
	count := 0
	for n := leftmostLeaf(t.root); n != nil; n = n.next {
		for _, set := range n.vals {
			count += len(set)
		}
	}
	if count != t.size {
		return "leaf chain pair count disagrees with size"
	}
	return ""
}

func leftmostLeaf(n *node) *node {
	for !n.leaf {
		n = n.children[0]
	}
	return n
}
