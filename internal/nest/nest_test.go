package nest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mla/internal/model"
)

// bankingNest builds the 4-nest from the paper's Section 4.2 banking
// example: customers (by family), creditors, and bank audits.
func bankingNest() *Nest {
	n := New(4)
	n.Add("t1", "cust", "famA")
	n.Add("t2", "cust", "famA")
	n.Add("t3", "cust", "famB")
	n.Add("c1", "cust", "cred1")
	n.Add("a1", "audit1", "audit1")
	return n
}

func TestLevelBankingExample(t *testing.T) {
	n := bankingNest()
	cases := []struct {
		a, b model.TxnID
		want int
	}{
		{"t1", "t1", 4}, // self: level k
		{"t1", "t2", 3}, // same family
		{"t1", "t3", 2}, // both customers, different family
		{"t1", "c1", 2}, // customer vs creditor
		{"t1", "a1", 1}, // anything vs bank audit
		{"a1", "c1", 1},
	}
	for _, c := range cases {
		if got := n.Level(c.a, c.b); got != c.want {
			t.Errorf("Level(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := n.Level(c.b, c.a); got != c.want {
			t.Errorf("Level(%s,%s) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestSameClass(t *testing.T) {
	n := bankingNest()
	if !n.SameClass("t1", "t3", 2) {
		t.Error("t1,t3 should share the level-2 class")
	}
	if n.SameClass("t1", "t3", 3) {
		t.Error("t1,t3 must not share a level-3 class")
	}
	if !n.SameClass("t1", "a1", 1) {
		t.Error("everything shares the level-1 class")
	}
}

func TestClassesStructure(t *testing.T) {
	n := bankingNest()
	if got := len(n.Classes(1)); got != 1 {
		t.Errorf("π(1) has %d classes, want 1", got)
	}
	if got := len(n.Classes(4)); got != 5 {
		t.Errorf("π(4) has %d classes, want 5 singletons", got)
	}
	// π(2): {t1,t2,t3,c1}, {a1}.
	c2 := n.Classes(2)
	if len(c2) != 2 {
		t.Fatalf("π(2) has %d classes, want 2: %v", len(c2), c2)
	}
	sizes := map[int]bool{len(c2[0]): true, len(c2[1]): true}
	if !sizes[1] || !sizes[4] {
		t.Errorf("π(2) class sizes wrong: %v", c2)
	}
	// π(3): {t1,t2}, {t3}, {c1}, {a1}.
	if got := len(n.Classes(3)); got != 4 {
		t.Errorf("π(3) has %d classes, want 4", got)
	}
}

// Property: the class chain is a genuine nest — π(i) refines π(i-1) — and
// level is consistent with class membership.
func TestQuickNestAxioms(t *testing.T) {
	n := bankingNest()
	txns := n.Txns()
	f := func(ai, bi uint8, lvl uint8) bool {
		a := txns[int(ai)%len(txns)]
		b := txns[int(bi)%len(txns)]
		l := n.Level(a, b)
		if l < 1 || l > n.K() {
			return false
		}
		// Level(a,b) >= i ⇔ same π(i) class, and refinement: same at i ⇒
		// same at every j < i.
		for i := 1; i <= n.K(); i++ {
			if n.SameClass(a, b, i) != (l >= i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestK2NestIsSerializabilityShape(t *testing.T) {
	n := New(2)
	n.Add("a")
	n.Add("b")
	if n.Level("a", "b") != 1 {
		t.Error("distinct transactions in a 2-nest relate only at level 1")
	}
	if n.Level("a", "a") != 2 {
		t.Error("self level must be k")
	}
}

func TestValidate(t *testing.T) {
	n := New(3)
	if err := n.Validate(); err == nil {
		t.Error("empty nest should not validate")
	}
	n.Add("a", "g1")
	if err := n.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRestrict(t *testing.T) {
	n := bankingNest()
	r := n.Restrict([]model.TxnID{"t1", "a1", "zz"})
	if len(r.Txns()) != 2 {
		t.Fatalf("Restrict kept %v", r.Txns())
	}
	if r.Level("t1", "a1") != 1 {
		t.Error("Restrict must preserve levels")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("k<2", func() { New(1) })
	mustPanic("wrong label count", func() { New(4).Add("t", "only-one") })
	mustPanic("duplicate add", func() {
		n := New(2)
		n.Add("t")
		n.Add("t")
	})
	mustPanic("unknown txn", func() {
		n := New(2)
		n.Add("t")
		n.Level("t", "ghost")
	})
	mustPanic("bad level", func() {
		n := New(2)
		n.Add("t")
		n.Add("u")
		n.SameClass("t", "u", 9)
	})
}

func TestSameLabelUnderDifferentParents(t *testing.T) {
	// "team1" under two different specialties must not merge classes.
	n := New(4)
	n.Add("a", "spec1", "team1")
	n.Add("b", "spec2", "team1")
	if n.Level("a", "b") != 1 {
		t.Errorf("Level = %d, want 1: shared leaf label must not merge", n.Level("a", "b"))
	}
}

// pathNest is the full-path representation the row slab replaced, kept as
// the reference: each transaction's path is "*", its intermediate labels,
// then "t:"+id, and every answer is read off the paths.
type pathNest struct {
	k     int
	paths map[model.TxnID][]string
}

func (r *pathNest) add(t model.TxnID, mid []string) {
	r.paths[t] = append(append([]string{"*"}, mid...), "t:"+string(t))
}

func (r *pathNest) level(t, u model.TxnID) int {
	pt, pu := r.paths[t], r.paths[u]
	lvl := 0
	for i := 0; i < r.k && pt[i] == pu[i]; i++ {
		lvl = i + 1
	}
	return lvl
}

func (r *pathNest) classes(level int) [][]model.TxnID {
	byKey := make(map[string][]model.TxnID)
	for t, p := range r.paths {
		key := strings.Join(p[:level], "\x00")
		byKey[key] = append(byKey[key], t)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]model.TxnID, 0, len(keys))
	for _, k := range keys {
		c := byKey[k]
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		out = append(out, c)
	}
	return out
}

// randomNest builds a k-nest and its reference over a small label alphabet,
// so labels recur under different parents ("team1" in two specialties) and
// one label may be a prefix of another.
func randomNest(rng *rand.Rand, k int) (*Nest, *pathNest) {
	alphabet := []string{"team1", "team", "spec1", "spec2", "a", "b"}
	n, ref := New(k), &pathNest{k: k, paths: make(map[model.TxnID][]string)}
	mid := make([]string, k-2)
	for i, size := 0, 1+rng.Intn(30); i < size; i++ {
		t := model.TxnID(fmt.Sprintf("t%02d", rng.Intn(100)))
		if n.Has(t) {
			continue
		}
		for j := range mid {
			mid[j] = alphabet[rng.Intn(len(alphabet))]
		}
		n.Add(t, mid...)
		ref.add(t, mid)
		// The nest keeps a copy: the caller's slice is reused at once.
		for j := range mid {
			mid[j] = "clobbered"
		}
	}
	return n, ref
}

// TestRowsMatchFullPaths: over random k-nests, k ∈ 2..5, every query on the
// row slab answers what the full-path representation does — Level,
// SameClass, Classes at every level (contents and order), Txns, and the
// same again on a Restrict to a random subset.
func TestRowsMatchFullPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(n *Nest, ref *pathNest) {
		t.Helper()
		txns := n.Txns()
		want := make([]model.TxnID, 0, len(ref.paths))
		for id := range ref.paths {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(txns, want) {
			t.Fatalf("Txns = %v, want %v", txns, want)
		}
		for _, a := range txns {
			for _, b := range txns {
				lvl := ref.level(a, b)
				if got := n.Level(a, b); got != lvl {
					t.Fatalf("k=%d: Level(%s,%s) = %d, want %d", n.K(), a, b, got, lvl)
				}
				for i := 1; i <= n.K(); i++ {
					if n.SameClass(a, b, i) != (lvl >= i) {
						t.Fatalf("k=%d: SameClass(%s,%s,%d) disagrees with level %d", n.K(), a, b, i, lvl)
					}
				}
			}
		}
		for lvl := 1; lvl <= n.K(); lvl++ {
			if got, want := n.Classes(lvl), ref.classes(lvl); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: Classes(%d) = %v, want %v", n.K(), lvl, got, want)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		k := 2 + trial%4
		n, ref := randomNest(rng, k)
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		check(n, ref)

		var keep []model.TxnID
		sub := &pathNest{k: k, paths: make(map[model.TxnID][]string)}
		for _, id := range n.Txns() {
			if rng.Intn(2) == 0 {
				keep = append(keep, id, id) // a repeated id is kept once
				sub.paths[id] = ref.paths[id]
			}
		}
		keep = append(keep, "absent")
		if len(sub.paths) > 0 {
			check(n.Restrict(keep), sub)
		}
	}
}

// TestAddAllocatesNothing: a row goes into the shared slab, so registering
// a transaction allocates only as the slab and the offset map grow.
func TestAddAllocatesNothing(t *testing.T) {
	const runs = 10000
	ids := make([]model.TxnID, runs+1)
	for i := range ids {
		ids[i] = model.TxnID(fmt.Sprintf("x%d", i))
	}
	n := New(4)
	path := []string{"cust", "fam-01"}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		n.Add(ids[i], path...)
		i++
	}); got != 0 {
		t.Fatalf("%.2f allocations per Add, want 0", got)
	}
	if n.Level(ids[0], ids[runs]) != 3 {
		t.Fatal("transactions of one family must share level 3")
	}
}

// Txns returns the registered transactions, sorted.
func (n *Nest) Txns() []model.TxnID {
	out := make([]model.TxnID, 0, len(n.row))
	for t := range n.row {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
