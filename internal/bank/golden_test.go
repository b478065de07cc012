package bank

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestGenerateGolden pins Generate's output — arrival order, and every
// transfer's family, sources and targets — for 200 seeds and three family
// sizes (fewer accounts than sources, the default, more than DrawTransfer's
// stack array holds) to the hash it had when the draws were written with
// rng.Perm: every experiment table and the chaos replay oracle are functions
// of this stream.
func TestGenerateGolden(t *testing.T) {
	h := fnv.New64a()
	for seed := int64(0); seed < 200; seed++ {
		for _, per := range []int{2, 4, 20} {
			p := DefaultParams()
			p.Seed, p.AccountsPerFamily = seed, per
			for _, prog := range Generate(p).Programs {
				if tr, ok := prog.(*Transfer); ok {
					fmt.Fprint(h, tr.Txn, tr.Family, tr.Sources, tr.Targets)
				} else {
					fmt.Fprint(h, prog.ID())
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x5616ac4dc869a5be); got != want {
		t.Fatalf("Generate's stream hashes to %#x, want %#x", got, want)
	}
}
