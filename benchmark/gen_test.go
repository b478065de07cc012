package main

import (
	"testing"

	"mla/internal/model"
)

func TestSameSeedSameRequestList(t *testing.T) {
	for _, w := range workloads {
		a, b := requestHash(w.Name, 7, 5000), requestHash(w.Name, 7, 5000)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s then %s", w.Name, a, b)
		}
		if c := requestHash(w.Name, 8, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 generate the same request list (%s)", w.Name, a)
		}
		if d := requestHash(w.Name, 7, 4999); d == a {
			t.Errorf("%s: the hash ignores the list length", w.Name)
		}
	}
	// bank_2pl and bank_mla run the same list: same mix, same generator.
	if mixOf("bank_2pl") != mixOf("bank_mla") {
		t.Error("bank_2pl and bank_mla must share one mix")
	}
}

func TestEveryBlockHoldsTheExactMix(t *testing.T) {
	for _, w := range []string{"serve_durable", "bank_2pl", "bank_mla"} {
		m := mixOf(w)
		var n [3]int
		for _, k := range m.pattern() {
			n[k]++
		}
		if n[kindTransfer] != m.transfers || n[kindCredit] != m.credits || n[kindAudit] != m.audits {
			t.Errorf("%s: a block holds %v, want %+v", w, n, m)
		}
	}
	m := mixOf("bank_mla")
	if m.block() != mlaEpochTxns {
		t.Fatalf("a block is %d requests, an epoch %d", m.block(), mlaEpochTxns)
	}
	// Kinds sit at the same positions in every block and for every seed;
	// the seed moves families and accounts only.
	a, b := newBankList(3, m), newBankList(4, m)
	same := true
	for i := 0; i < 5*m.block(); i++ {
		if a.at(i).Kind != b.at(i).Kind || a.at(i).Kind != a.at(i+m.block()).Kind {
			t.Fatalf("request %d: kind depends on the seed or the block", i)
		}
		same = same && a.at(i) == b.at(i)
	}
	if same {
		t.Error("seeds 3 and 4 generate identical requests")
	}
}

func TestBankRequestsAreValid(t *testing.T) {
	for i := 0; i < 20_000; i++ {
		r := bankRequest(11, i, kindTransfer)
		if r.Src[0] == r.Src[1] || r.Src[0] == r.Src[2] || r.Src[1] == r.Src[2] {
			t.Fatalf("request %d: sources not distinct: %v", i, r.Src)
		}
		if int(r.Family) >= bankFamilies || int(r.TFam) >= bankFamilies {
			t.Fatalf("request %d: family out of range: %+v", i, r)
		}
		for _, a := range append(r.Src[:], r.Tgt[:]...) {
			if int(a) >= bankAccountsPerFam {
				t.Fatalf("request %d: account out of range: %+v", i, r)
			}
		}
		if r.TFam != r.Family && r.Tgt[0] == r.Tgt[1] {
			t.Fatalf("request %d: cross-family targets not distinct: %+v", i, r)
		}
	}
}

func TestUniformOrderIsAPermutation(t *testing.T) {
	seen := make(map[uint16]bool)
	for _, s := range uniformOrder(5) {
		seen[s] = true
	}
	if len(seen) != uniformSlots {
		t.Errorf("order covers %d of %d slots", len(seen), uniformSlots)
	}
}

func TestTxnIndexInvertsTxnID(t *testing.T) {
	var buf []byte
	var id model.TxnID
	for _, i := range []int64{1, 35, 36, 1295, 1 << 30} {
		buf, id = txnID(buf, 'x', i)
		if got := txnIndex(id); got != i {
			t.Errorf("txnIndex(%q) = %d, want %d", id, got, i)
		}
	}
	for _, foreign := range []model.TxnID{"", "x", "warm-12", "xfer-003"} {
		if got := txnIndex(foreign); got != 0 {
			t.Errorf("txnIndex(%q) = %d, want 0", foreign, got)
		}
	}
}
