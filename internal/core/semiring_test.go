package core

import (
	"math"
	"testing"
)

func TestMinPlusIdentities(t *testing.T) {
	sr := MinPlus()
	vals := []int64{0, 1, 7, 1 << 40, InfWeight}
	for _, x := range vals {
		if got := sr.Add(sr.Zero, x); got != x {
			t.Errorf("Add(Zero, %d) = %d, want %d", x, got, x)
		}
		if got := sr.Add(x, sr.Zero); got != x {
			t.Errorf("Add(%d, Zero) = %d, want %d", x, got, x)
		}
		if got := sr.Mul(sr.One, x); got != x {
			t.Errorf("Mul(One, %d) = %d, want %d", x, got, x)
		}
		if got := sr.Mul(x, sr.Zero); got != sr.Zero {
			t.Errorf("Mul(%d, Zero) = %d, want Zero", x, got)
		}
	}
	if got := sr.Add(3, 5); got != 3 {
		t.Errorf("Add(3,5) = %d, want 3", got)
	}
	if got := sr.Mul(3, 5); got != 8 {
		t.Errorf("Mul(3,5) = %d, want 8", got)
	}
}

func TestMinPlusSaturates(t *testing.T) {
	sr := MinPlus()
	big := InfWeight - 1
	if got := sr.Mul(big, big); got != InfWeight {
		t.Errorf("Mul(big, big) = %d, want InfWeight", got)
	}
	if got := sr.Mul(InfWeight, 1); got != InfWeight {
		t.Errorf("Mul(Inf, 1) = %d, want InfWeight", got)
	}
	// The sentinel must leave headroom so a pre-saturation sum of two
	// "infinite" operands cannot wrap around int64.
	if InfWeight > math.MaxInt64/2 {
		t.Fatalf("InfWeight %d leaves no overflow headroom", InfWeight)
	}
}

func TestMaxMinIdentities(t *testing.T) {
	sr := MaxMin()
	if sr.Zero != 0 || sr.One != InfWidth {
		t.Fatalf("MaxMin identities = (%d,%d), want (0,%d)", sr.Zero, sr.One, InfWidth)
	}
	vals := []int64{0, 1, 7, 1 << 20, InfWidth}
	for _, x := range vals {
		if got := sr.Add(sr.Zero, x); got != x {
			t.Errorf("Add(Zero, %d) = %d, want %d", x, got, x)
		}
		if got := sr.Mul(sr.One, x); got != x {
			t.Errorf("Mul(One, %d) = %d, want %d", x, got, x)
		}
		if got := sr.Mul(x, sr.Zero); got != sr.Zero {
			t.Errorf("Mul(%d, Zero) = %d, want Zero", x, got)
		}
	}
	if got := sr.Add(3, 5); got != 5 {
		t.Errorf("Add(3,5) = %d, want 5", got)
	}
	if got := sr.Mul(3, 5); got != 3 {
		t.Errorf("Mul(3,5) = %d, want 3", got)
	}
	if got := sr.EdgeValue(9, true); got != 9 {
		t.Errorf("EdgeValue(9, weighted) = %d, want 9", got)
	}
	if got := sr.EdgeValue(9, false); got != 1 {
		t.Errorf("EdgeValue(9, unweighted) = %d, want 1", got)
	}
}

// semiringSamples returns a representative value set for each semiring,
// drawn from its valid domain (non-negative finite weights for minplus,
// {0,1} for booland, [0, InfWidth] for maxmin). The axiom test below
// checks every law over all triples from this set.
func semiringSamples(name string) []int64 {
	switch name {
	case "minplus":
		return []int64{0, 1, 2, 7, 1 << 40, InfWeight - 1, InfWeight}
	case "booland":
		return []int64{0, 1}
	case "maxmin":
		return []int64{0, 1, 2, 7, 1 << 20, InfWidth - 1, InfWidth}
	}
	return nil
}

// TestSemiringAxioms property-tests the semiring laws — associativity
// and commutativity of Add, identity/annihilator behavior of Zero,
// associativity and identity of Mul, and distributivity of Mul over
// Add — over sampled values for every registered semiring, so any
// future instance is checked by construction the moment it joins
// AllSemirings.
func TestSemiringAxioms(t *testing.T) {
	for _, sr := range AllSemirings() {
		sr := sr
		t.Run(sr.Name, func(t *testing.T) {
			vals := semiringSamples(sr.Name)
			if len(vals) == 0 {
				t.Fatalf("no sample domain for semiring %q: extend semiringSamples", sr.Name)
			}
			if _, err := SemiringByName(sr.Name); err != nil {
				t.Fatalf("SemiringByName(%q): %v", sr.Name, err)
			}
			for _, a := range vals {
				if got := sr.Add(sr.Zero, a); got != a {
					t.Errorf("Add(Zero, %d) = %d, want %d", a, got, a)
				}
				if got := sr.Mul(sr.One, a); got != a {
					t.Errorf("Mul(One, %d) = %d, want %d", a, got, a)
				}
				if got := sr.Mul(a, sr.One); got != a {
					t.Errorf("Mul(%d, One) = %d, want %d", a, got, a)
				}
				if got := sr.Mul(sr.Zero, a); got != sr.Zero {
					t.Errorf("Mul(Zero, %d) = %d, want Zero", a, got)
				}
				if got := sr.Mul(a, sr.Zero); got != sr.Zero {
					t.Errorf("Mul(%d, Zero) = %d, want Zero", a, got)
				}
				// Idempotence: the delta products of matmul.Chain
				// re-fold terms the accumulator already holds.
				if got := sr.Add(a, a); got != a {
					t.Errorf("Add(%d, %d) = %d, want %d (idempotence)", a, a, got, a)
				}
				for _, b := range vals {
					if sr.Add(a, b) != sr.Add(b, a) {
						t.Errorf("Add not commutative on (%d,%d)", a, b)
					}
					for _, c := range vals {
						if sr.Add(sr.Add(a, b), c) != sr.Add(a, sr.Add(b, c)) {
							t.Errorf("Add not associative on (%d,%d,%d)", a, b, c)
						}
						if sr.Mul(sr.Mul(a, b), c) != sr.Mul(a, sr.Mul(b, c)) {
							t.Errorf("Mul not associative on (%d,%d,%d)", a, b, c)
						}
						left := sr.Mul(a, sr.Add(b, c))
						right := sr.Add(sr.Mul(a, b), sr.Mul(a, c))
						if left != right {
							t.Errorf("left distributivity fails on (%d,%d,%d): %d != %d", a, b, c, left, right)
						}
						left = sr.Mul(sr.Add(b, c), a)
						right = sr.Add(sr.Mul(b, a), sr.Mul(c, a))
						if left != right {
							t.Errorf("right distributivity fails on (%d,%d,%d): %d != %d", a, b, c, left, right)
						}
					}
				}
			}
		})
	}
}

func TestBoolOrAnd(t *testing.T) {
	sr := BoolOrAnd()
	cases := []struct{ a, b, or, and int64 }{
		{0, 0, 0, 0}, {0, 1, 1, 0}, {1, 0, 1, 0}, {1, 1, 1, 1},
	}
	for _, c := range cases {
		if got := sr.Add(c.a, c.b); got != c.or {
			t.Errorf("Add(%d,%d) = %d, want %d", c.a, c.b, got, c.or)
		}
		if got := sr.Mul(c.a, c.b); got != c.and {
			t.Errorf("Mul(%d,%d) = %d, want %d", c.a, c.b, got, c.and)
		}
	}
	if sr.Zero != 0 || sr.One != 1 {
		t.Errorf("BoolOrAnd identities = (%d,%d), want (0,1)", sr.Zero, sr.One)
	}
}
