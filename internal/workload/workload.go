// Package workload generates the I/O patterns the experiments replay:
// the uFLIP-style microbenchmark patterns (sequential/random reads and
// writes, the matrix the authors used in refs [2,3,6] to establish the
// myths), skewed (Zipf) accesses, partitioned patterns, and a small
// transactional workload for the storage-engine experiments.
package workload

import (
	"fmt"

	"repro/internal/sim"
)

// Kind is the operation type of a generated access.
type Kind int

// Access kinds.
const (
	Read Kind = iota
	Write
)

// Access is one generated I/O.
type Access struct {
	Kind Kind
	LPN  int64
}

// Pattern names a uFLIP-style access pattern.
type Pattern int

// uFLIP base patterns.
const (
	// SR: sequential reads.
	SR Pattern = iota
	// RR: uniform random reads.
	RR
	// SW: sequential writes.
	SW
	// RW: uniform random writes.
	RW
	// ZR: Zipf-skewed reads.
	ZR
	// ZW: Zipf-skewed writes.
	ZW
	// MIX: 50/50 random reads and writes.
	MIX
)

// String names the pattern like the uFLIP papers do.
func (p Pattern) String() string {
	switch p {
	case SR:
		return "SR"
	case RR:
		return "RR"
	case SW:
		return "SW"
	case RW:
		return "RW"
	case ZR:
		return "ZR"
	case ZW:
		return "ZW"
	case MIX:
		return "MIX"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Patterns lists the standard matrix.
var Patterns = []Pattern{SR, RR, SW, RW}

// Generator produces a deterministic access stream.
type Generator struct {
	pattern Pattern
	span    int64 // LPN range [0, span)
	rng     *sim.RNG
	zipf    *sim.Zipf
	next    int64
}

// NewGenerator builds a generator over LPNs [0, span).
func NewGenerator(pattern Pattern, span int64, seed uint64) (*Generator, error) {
	if span <= 0 {
		return nil, fmt.Errorf("workload: span %d must be positive", span)
	}
	g := &Generator{pattern: pattern, span: span, rng: sim.NewRNG(seed)}
	if pattern == ZR || pattern == ZW {
		g.zipf = sim.NewZipf(g.rng, span, 0.99)
	}
	return g, nil
}

// Next returns the next access.
func (g *Generator) Next() Access {
	switch g.pattern {
	case SR, SW:
		lpn := g.next % g.span
		g.next++
		k := Read
		if g.pattern == SW {
			k = Write
		}
		return Access{Kind: k, LPN: lpn}
	case RR:
		return Access{Kind: Read, LPN: g.rng.Int63n(g.span)}
	case RW:
		return Access{Kind: Write, LPN: g.rng.Int63n(g.span)}
	case ZR:
		return Access{Kind: Read, LPN: g.zipf.Next()}
	case ZW:
		return Access{Kind: Write, LPN: g.zipf.Next()}
	default: // MIX
		k := Read
		if g.rng.Bool(0.5) {
			k = Write
		}
		return Access{Kind: k, LPN: g.rng.Int63n(g.span)}
	}
}

// Txn is one generated transaction for the engine experiments.
type Txn struct {
	// Puts maps keys to values.
	Puts map[string][]byte
	// Deletes lists keys to remove.
	Deletes []string
}

// TxnGenerator produces update transactions over a bounded key space,
// with Zipf-skewed key popularity (an OLTP-flavoured stream).
type TxnGenerator struct {
	rng       *sim.RNG
	zipf      *sim.Zipf
	keys      int64
	valueSize int
	opsPerTxn int
	deletePct float64
	counter   uint64
}

// NewTxnGenerator builds a transactional workload generator.
func NewTxnGenerator(keys int64, valueSize, opsPerTxn int, seed uint64) (*TxnGenerator, error) {
	if keys <= 0 || valueSize < 0 || opsPerTxn <= 0 {
		return nil, fmt.Errorf("workload: bad txn parameters")
	}
	rng := sim.NewRNG(seed)
	return &TxnGenerator{
		rng:       rng,
		zipf:      sim.NewZipf(rng, keys, 0.9),
		keys:      keys,
		valueSize: valueSize,
		opsPerTxn: opsPerTxn,
		deletePct: 0.05,
	}, nil
}

// Next generates one transaction.
func (t *TxnGenerator) Next() Txn {
	txn := Txn{Puts: make(map[string][]byte)}
	for i := 0; i < t.opsPerTxn; i++ {
		key := fmt.Sprintf("key%08d", t.zipf.Next())
		if t.rng.Bool(t.deletePct) {
			txn.Deletes = append(txn.Deletes, key)
			delete(txn.Puts, key)
			continue
		}
		t.counter++
		val := make([]byte, t.valueSize)
		for j := range val {
			val[j] = byte(t.counter + uint64(j))
		}
		txn.Puts[key] = val
	}
	return txn
}
