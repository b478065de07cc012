package main

import (
	"hash/fnv"
	"strconv"

	"mla/internal/model"
)

// Every workload's inputs are a pure function of (seed, request index), so
// the request list is identical on every host and for every caller count,
// and any caller can build request i without a shared cursor. The program
// under test sees only the generated requests, never the seed.

// mix64 is splitmix64's finaliser: a bijective scramble of one word.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draws is a tiny deterministic stream for one request.
type draws struct{ state uint64 }

func drawsFor(seed int64, i int) draws {
	return draws{state: mix64(uint64(seed)) ^ mix64(uint64(i)+0x51ed2701)}
}

func (d *draws) next() uint64 {
	d.state = mix64(d.state)
	return d.state
}

// intn returns a value in [0, n). The modulo bias is < 2⁻⁵⁰ for the small n
// used here.
func (d *draws) intn(n int) int { return int(d.next() % uint64(n)) }

// Transaction kinds of the banking mix (Section 4.2).
const (
	kindTransfer uint8 = iota
	kindCredit         // creditor audit: reads one family
	kindAudit          // bank audit: reads every account
)

var kindNames = [...]string{"transfer", "credit", "audit"}

// bankMix is a kind mix given as exact counts per block of consecutive
// requests: every block holds exactly these many of each kind, spread
// evenly through the block at the same positions in every block and for
// every seed (the seed picks families and accounts, not kinds). Under the
// closure gate an audit's cost depends steeply on how far into its epoch it
// arrives, so coin-flipped kinds or shuffled positions make two seeds two
// different workloads; fixed positions keep them one.
type bankMix struct{ transfers, credits, audits int }

func (m bankMix) block() int { return m.transfers + m.credits + m.audits }

// pattern lays one block out: audits at the centres of `audits` equal
// stretches, creditor audits likewise (shifted to the next free slot when
// a centre is taken), transfers everywhere else.
func (m bankMix) pattern() []uint8 {
	b := m.block()
	p := make([]uint8, b) // zero value: kindTransfer
	place := func(kind uint8, count int) {
		for k := 0; k < count; k++ {
			at := (2*k + 1) * b / (2 * count)
			for p[at%b] != kindTransfer {
				at++
			}
			p[at%b] = kind
		}
	}
	place(kindAudit, m.audits)
	place(kindCredit, m.credits)
	return p
}

// bankList is one banking request list: request i (0-based) is a pure
// function of the seed, the mix and i.
type bankList struct {
	seed    int64
	pattern []uint8
}

func newBankList(seed int64, m bankMix) bankList {
	return bankList{seed: seed, pattern: m.pattern()}
}

func (l bankList) at(i int) bankReq {
	return bankRequest(l.seed, i, l.pattern[i%len(l.pattern)])
}

// bankReq is one generated banking request. For serve_durable only Kind and
// Family are used (the server synthesises the accounts from its own
// session rng); the in-process bank workloads use every field.
type bankReq struct {
	Kind   uint8
	Family uint8    // originating family = session index
	Src    [3]uint8 // distinct source account indices, in scan order
	TFam   uint8    // deposit family (≠ Family on cross-family transfers)
	Tgt    [2]uint8 // deposit account indices
}

const (
	bankFamilies       = 16
	bankAccountsPerFam = 4
	bankCrossFamilyPct = 50
)

func bankRequest(seed int64, i int, kind uint8) bankReq {
	d := drawsFor(seed, i)
	r := bankReq{Kind: kind}
	r.Family = uint8(d.intn(bankFamilies))
	// Three distinct sources: a partial Fisher–Yates over the 4 accounts.
	perm := [bankAccountsPerFam]uint8{0, 1, 2, 3}
	for j := 0; j < 3; j++ {
		k := j + d.intn(bankAccountsPerFam-j)
		perm[j], perm[k] = perm[k], perm[j]
	}
	copy(r.Src[:], perm[:3])
	r.TFam = r.Family
	if d.intn(100) < bankCrossFamilyPct {
		r.TFam = uint8((int(r.Family) + 1 + d.intn(bankFamilies-1)) % bankFamilies)
	}
	if r.TFam != r.Family {
		a := d.intn(bankAccountsPerFam)
		b := (a + 1 + d.intn(bankAccountsPerFam-1)) % bankAccountsPerFam
		r.Tgt = [2]uint8{uint8(a), uint8(b)}
	} else {
		// Same family: only one account is not a source. Deposit there
		// first, then (as bank.Generate does) fall back to any account.
		r.Tgt = [2]uint8{perm[3], uint8(d.intn(bankAccountsPerFam))}
	}
	return r
}

// uniformSlots is engine_uniform's slot count: slot s is the 2-step
// increment of entities 2s and 2s+1, so the 2,048 slots stride all 4,096
// entities and only a repeated slot collides.
const (
	uniformEntities = 4096
	uniformSlots    = uniformEntities / 2
)

// uniformOrder is the seed's permutation of the slots; request i uses slot
// order[i % uniformSlots].
func uniformOrder(seed int64) []uint16 {
	order := make([]uint16, uniformSlots)
	for i := range order {
		order[i] = uint16(i)
	}
	d := drawsFor(seed, -1)
	for i := len(order) - 1; i > 0; i-- {
		j := d.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// requestHash fingerprints the first n requests of a workload's list, so
// two runs can prove they executed the same inputs.
func requestHash(workload string, seed int64, n int) string {
	h := fnv.New64a()
	h.Write([]byte(workload))
	var buf [8]byte
	switch workload {
	case "engine_uniform":
		order := uniformOrder(seed)
		for i := 0; i < n; i++ {
			s := order[i%len(order)]
			buf[0], buf[1] = byte(s), byte(s>>8)
			h.Write(buf[:2])
		}
	default:
		list := newBankList(seed, mixOf(workload))
		for i := 0; i < n; i++ {
			r := list.at(i)
			buf = [8]byte{r.Kind, r.Family, r.Src[0], r.Src[1], r.Src[2], r.TFam, r.Tgt[0], r.Tgt[1]}
			h.Write(buf[:])
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// mixOf is each banking workload's kind mix. bank_2pl and bank_mla share
// one (a block is one bank_mla epoch), so the two run the same request list.
func mixOf(workload string) bankMix {
	if workload == "serve_durable" {
		return bankMix{transfers: 91, credits: 8, audits: 1}
	}
	return bankMix{transfers: 100, credits: 8, audits: 2}
}

// txnID builds "<prefix><i in base 36>" into buf and returns both, so a
// caller that owns buf allocates only the string copy. The index is
// recoverable with txnIndex — that is how a span recorded inside a
// decorator finds its transaction.
func txnID(buf []byte, prefix byte, i int64) ([]byte, model.TxnID) {
	buf = strconv.AppendInt(append(buf[:0], prefix), i, 36)
	return buf, model.TxnID(buf)
}

// txnIndex inverts txnID; 0 means "not one of ours".
func txnIndex(t model.TxnID) int64 {
	if len(t) < 2 {
		return 0
	}
	var n int64
	for i := 1; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= '0' && c <= '9':
			n = n*36 + int64(c-'0')
		case c >= 'a' && c <= 'z':
			n = n*36 + int64(c-'a') + 10
		default:
			return 0
		}
	}
	return n
}
