package matmul

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/paper-repo-growth/doryp20/internal/ckptio"
	"github.com/paper-repo-growth/doryp20/internal/core"
	"github.com/paper-repo-growth/doryp20/internal/engine"
)

// randomValue draws a non-Zero value from sr's domain.
func randomValue(rng *rand.Rand, sr core.Semiring) int64 {
	switch sr.Name {
	case "booland":
		return 1
	case "maxmin":
		return 1 + rng.Int63n(40)
	}
	return rng.Int63n(50)
}

// randomReflexive builds an n x n matrix over sr with diagonal One and
// each off-diagonal entry present with probability p.
func randomReflexive(t *testing.T, rng *rand.Rand, n int, p float64, sr core.Semiring) *Matrix {
	t.Helper()
	var es []Entry
	for v := 0; v < n; v++ {
		es = append(es, Entry{Row: core.NodeID(v), Col: core.NodeID(v), Val: sr.One})
		for k := 0; k < n; k++ {
			if k != v && rng.Float64() < p {
				es = append(es, Entry{Row: core.NodeID(v), Col: core.NodeID(k), Val: randomValue(rng, sr)})
			}
		}
	}
	m, err := FromEntries(n, sr, es)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomColumns builds an n x k start matrix with each entry non-Zero
// with probability p.
func randomColumns(rng *rand.Rand, n, k int, p float64, sr core.Semiring) *Dense {
	b := NewDense(n, k, sr)
	for i := range b.Vals {
		if rng.Float64() < p {
			b.Vals[i] = randomValue(rng, sr)
		}
	}
	return b
}

// deltaWords counts the data words a delta pass over s must route:
// every changed non-Zero entry of row k goes once to each requester
// v != k with s[v][k] present.
func deltaWords(s *Matrix, cur, prev *Dense) uint64 {
	requesters := make([]uint64, s.N)
	for v := 0; v < s.N; v++ {
		cols, _ := s.Row(core.NodeID(v))
		for _, k := range cols {
			if int(k) != v {
				requesters[k]++
			}
		}
	}
	var words uint64
	for k := 0; k < cur.N; k++ {
		for j, x := range cur.Row(core.NodeID(k)) {
			if x != cur.Sr.Zero && (prev == nil || prev.At(core.NodeID(k), j) != x) {
				words += requesters[k]
			}
		}
	}
	return words
}

// TestChainMatchesRef is the delta-product property: over every
// semiring, random reflexive S and random start columns, t delta
// products equal t MulDenseRef products bit for bit, and each pass
// routes exactly its request words plus (changed entries x
// requesters) data words.
func TestChainMatchesRef(t *testing.T) {
	for _, sr := range core.AllSemirings() {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*31 + int64(len(sr.Name))))
			n := 6 + rng.Intn(20)
			k := 1 + rng.Intn(5)
			s := randomReflexive(t, rng, n, 0.05+0.25*rng.Float64(), sr)
			want := randomColumns(rng, n, k, 0.2, sr)
			products := 1 + rng.Intn(n)
			c, err := NewChain(s, want, products)
			if err != nil {
				t.Fatalf("%s trial %d: NewChain: %v", sr.Name, trial, err)
			}
			requests := uint64(s.NNZ() - n)
			for pass := 0; ; pass++ {
				cur, prev := c.cur, c.prev
				nodes, err := c.Next()
				if err != nil {
					t.Fatalf("%s trial %d pass %d: %v", sr.Name, trial, pass, err)
				}
				if nodes == nil {
					if pass != products {
						t.Fatalf("%s trial %d: chain ran %d products, want %d", sr.Name, trial, pass, products)
					}
					break
				}
				st, err := engine.RunOnce(nodes, engine.Options{MaxRounds: c.MaxRoundsHint()})
				if err != nil {
					t.Fatalf("%s trial %d pass %d: run: %v", sr.Name, trial, pass, err)
				}
				data := deltaWords(s, cur, prev)
				if st.TotalMsgs != requests+data {
					t.Fatalf("%s trial %d pass %d: routed %d words, want %d requests + %d data",
						sr.Name, trial, pass, st.TotalMsgs, requests, data)
				}
				if data == 0 && st.Rounds > 2 {
					t.Fatalf("%s trial %d pass %d: a pass with no changed entries took %d rounds, want <= 2",
						sr.Name, trial, pass, st.Rounds)
				}
				if want, err = MulDenseRef(s, want); err != nil {
					t.Fatal(err)
				}
				if err := c.Harvest(); err != nil {
					t.Fatal(err)
				}
				for i, x := range c.Cur().Vals {
					if x != want.Vals[i] {
						t.Fatalf("%s trial %d pass %d: entry %d = %d, want %d", sr.Name, trial, pass, i, x, want.Vals[i])
					}
				}
			}
		}
	}
}

// TestChainRejectsNonReflexive: the delta product is only exact when
// every diagonal entry of S is One, so a missing or different diagonal
// entry is an error, as are mismatched shapes and negative counts.
func TestChainRejectsNonReflexive(t *testing.T) {
	for _, sr := range core.AllSemirings() {
		b := NewDense(4, 2, sr)
		noDiag, err := FromEntries(4, sr, []Entry{{Row: 0, Col: 1, Val: sr.One}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewChain(noDiag, b, 1); err == nil || !strings.Contains(err.Error(), "diagonal") {
			t.Errorf("%s: NewChain over a matrix without diagonal: err = %v, want a diagonal error", sr.Name, err)
		}
		if sr.Name != "booland" {
			// Over (min,+) and (max,min), 7 is a legal entry that is not One.
			es := []Entry{{Row: 0, Col: 0, Val: 7}, {Row: 1, Col: 1, Val: sr.One},
				{Row: 2, Col: 2, Val: sr.One}, {Row: 3, Col: 3, Val: sr.One}}
			wrongDiag, err := FromEntries(4, sr, es)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewChain(wrongDiag, b, 1); err == nil || !strings.Contains(err.Error(), "diagonal") {
				t.Errorf("%s: NewChain with diagonal 7: err = %v, want a diagonal error", sr.Name, err)
			}
		}
		id := Identity(4, sr)
		if _, err := NewChain(id, NewDense(5, 2, sr), 1); err == nil {
			t.Errorf("%s: NewChain accepted a 5-row start for a 4 x 4 matrix", sr.Name)
		}
		if _, err := NewChain(id, b, -1); err == nil {
			t.Errorf("%s: NewChain accepted a negative product count", sr.Name)
		}
	}
}

// TestChainRoundTrip: a chain checkpointed between products (previous
// columns included) resumes to the same final columns as an
// uninterrupted one, and a restored chain is validated like a new one.
func TestChainRoundTrip(t *testing.T) {
	sr := core.MinPlus()
	rng := rand.New(rand.NewSource(5))
	s := randomReflexive(t, rng, 16, 0.2, sr)
	b := randomColumns(rng, 16, 3, 0.3, sr)
	run := func(c *Chain, passes int) *Chain {
		for i := 0; i < passes || passes < 0; i++ {
			nodes, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if nodes == nil {
				break
			}
			if _, err := engine.RunOnce(nodes, engine.Options{MaxRounds: c.MaxRoundsHint()}); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	full, err := NewChain(s, b, 6)
	if err != nil {
		t.Fatal(err)
	}
	run(full, -1)

	half, err := NewChain(s, b, 6)
	if err != nil {
		t.Fatal(err)
	}
	run(half, 3)
	if err := half.Harvest(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ckptio.NewWriter(&buf)
	WriteChain(w, half)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	restored, err := ReadChain(ckptio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if restored.prev == nil || restored.remaining != 3 {
		t.Fatalf("restored chain: prev %v, remaining %d; want previous columns and 3 products left", restored.prev, restored.remaining)
	}
	run(restored, -1)
	for i, x := range restored.Cur().Vals {
		if x != full.Cur().Vals[i] {
			t.Fatalf("entry %d: resumed %d, uninterrupted %d", i, x, full.Cur().Vals[i])
		}
	}

	// A restored chain whose matrix lost its reflexive diagonal is
	// rejected, not run.
	noDiag, err := FromEntries(16, sr, []Entry{{Row: 0, Col: 1, Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	w = ckptio.NewWriter(&buf)
	WriteChain(w, &Chain{s: noDiag, cur: b})
	if _, err := ReadChain(ckptio.NewReader(bytes.NewReader(buf.Bytes()))); err == nil {
		t.Fatal("ReadChain accepted a chain over a non-reflexive matrix")
	}
}
