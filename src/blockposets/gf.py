"""Arithmetic over GF(p^d), univariate polynomials, and exact linear algebra.

Field elements are plain Python values so they stay cheap to hash and store
in sparse supports: residues (ints) for prime fields, coefficient tuples of
length d for extensions.  A field object carries the operations.

Polynomials are coefficient lists over a field, lowest degree first, with no
trailing zeros (the zero polynomial is ``[]``).  The integer encoding of a
polynomial over GF(p) is ``sum(c_i * p^i)``; "least" irreducible always means
least under this encoding, which puts low-degree coefficients in low
positions.  The polynomial layer has three callers: `least_irreducible`,
which picks the modulus of GF(p^d) by trial division; `ExtensionField.mul`,
which multiplies over GF(p) and reduces by that modulus; and the block
splitter, which certifies that a minimal polynomial divides x^q - x and then
finds its roots with `poly_roots`.

Matrices are lists of rows of field values.  Everything is exact; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

import random


class PrimeField:
    """GF(p) with elements the ints 0..p-1."""

    def __init__(self, p):
        if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.d = 1
        self.q = p
        self.zero = 0
        self.one = 1
        self.modulus = None

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def rand(self, rng):
        return rng.randrange(self.p)

    def encode(self, a):
        return a

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p, 1))


class ExtensionField:
    """GF(p^d), d >= 2, as GF(p)[x] modulo the least irreducible of degree d.

    Elements are tuples of d residues, lowest degree first.
    """

    def __init__(self, p, d):
        if d < 2:
            raise ValueError("use PrimeField for d = 1")
        self.p = p
        self.d = d
        self.q = p ** d
        self.base = PrimeField(p)       # refuses a p not prime
        # ints, length d+1, monic
        self.modulus = least_irreducible(p, d)
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        F = self.base
        r = poly_mod(poly_mul(a, b, F), self.modulus, F)
        return tuple(r) + (0,) * (self.d - len(r))

    def pow(self, a, n):
        """a^n for n >= 0, by squaring."""
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.q - 2)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.d - 1)

    def rand(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.d))

    def encode(self, a):
        return sum(c * self.p ** i for i, c in enumerate(a))

    def __repr__(self):
        return f"GF({self.p}^{self.d})"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and other.p == self.p and other.d == self.d)

    def __hash__(self):
        return hash(("GF", self.p, self.d))


def field_context(p, d=1):
    return PrimeField(p) if d == 1 else ExtensionField(p, d)


def least_irreducible(p, d):
    """The monic irreducible of degree d over GF(p) least under integer encoding.

    A candidate is irreducible when no monic polynomial of degree 1..d//2
    divides it.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    F = PrimeField(p)

    def monic(n, degree):  # low coefficients are the base-p digits of n
        return [n // p ** i % p for i in range(degree)] + [1]

    divisors = [monic(n, k) for k in range(1, d // 2 + 1)
                for n in range(p ** k)]
    for n in range(p ** d):
        f = monic(n, d)
        if all(poly_mod(f, g, F) for g in divisors):
            return tuple(f)
    raise RuntimeError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------
# polynomials over an arbitrary field object


def poly_trim(f, F):
    while f and f[-1] == F.zero:
        f.pop()
    return f


def poly_add(f, g, F):
    out = [F.zero] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return poly_trim(out, F)


def poly_sub(f, g, F):
    out = [F.zero] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = F.sub(out[i], c)
    return poly_trim(out, F)


def poly_mul(f, g, F):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a != F.zero:
            for j, b in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return poly_trim(out, F)


def poly_divmod(f, g, F):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = len(g) - 1
    inv_lead = F.inv(g[-1])
    quot = [F.zero] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        c = F.mul(f[-1], inv_lead)
        shift = len(f) - 1 - dg
        quot[shift] = c
        for i, gc in enumerate(g):
            f[shift + i] = F.sub(f[shift + i], F.mul(c, gc))
        poly_trim(f, F)
    return poly_trim(quot, F), f


def poly_mod(f, g, F):
    return poly_divmod(f, g, F)[1]


def poly_gcd(f, g, F):
    f, g = list(f), list(g)
    while g:
        f, g = g, poly_mod(f, g, F)
    return poly_monic(f, F)


def poly_monic(f, F):
    if not f:
        return f
    inv = F.inv(f[-1])
    return [F.mul(c, inv) for c in f]


def poly_powmod(base, n, mod, F):
    result = [F.one]
    base = poly_mod(base, mod, F)
    while n:
        if n & 1:
            result = poly_mod(poly_mul(result, base, F), mod, F)
        base = poly_mod(poly_mul(base, base, F), mod, F)
        n >>= 1
    return result


def poly_roots(f, F):
    """The roots of a monic f of degree >= 1 with distinct roots, all in F.

    Cantor-Zassenhaus splitting at degree 1 from a seeded rng: for random a
    mod f, gcd(f, a^((q-1)/2) - 1), or in characteristic 2 gcd(f, a + a^2 +
    ... + a^(q/2)), is a proper factor about half the time.  On any other f
    the search does not end, so callers first certify that f divides x^q - x.
    """
    rng = random.Random(0x5EED)
    roots = []
    stack = [f]
    while stack:
        f = stack.pop()
        n = len(f) - 1
        if n == 1:
            roots.append(F.neg(f[0]))
            continue
        while True:
            a = poly_trim([F.rand(rng) for _ in range(n)], F)
            if len(a) <= 1:
                continue
            if F.p == 2:
                t = acc = a
                for _ in range(F.d - 1):
                    t = poly_mod(poly_mul(t, t, F), f, F)
                    acc = poly_add(acc, t, F)
            else:
                b = poly_powmod(a, (F.q - 1) // 2, f, F)
                acc = poly_sub(b, [F.one], F)
            g = poly_gcd(acc, f, F)
            if 0 < len(g) - 1 < n:
                break
        stack += [g, poly_divmod(f, g, F)[0]]
    return roots


# ---------------------------------------------------------------------------
# exact linear algebra over a field object


def rref(A, F):
    """(reduced matrix, pivot column list); A is not modified."""
    M = [row[:] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if M[i][c] != F.zero:
                pivot = i
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(x, inv) for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != F.zero:
                factor = M[i][c]
                M[i] = [F.sub(x, F.mul(factor, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def nullspace(A, F):
    """Basis of {v : A v = 0}: one vector per non-pivot column of rref(A)."""
    cols = len(A[0]) if A else 0
    M, pivots = rref(A, F)
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        v = [F.zero] * cols
        v[free] = F.one
        for r, c in enumerate(pivots):
            v[c] = F.neg(M[r][free])
        basis.append(v)
    return basis


def rank(A, F):
    return len(rref(A, F)[1])


def solve(A, b, F):
    """One solution x of A x = b, or raise ValueError if inconsistent."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    aug = [A[i][:] + [b[i]] for i in range(rows)]
    M, pivots = rref(aug, F)
    for i in range(rows):
        if all(x == F.zero for x in M[i][:cols]) and M[i][cols] != F.zero:
            raise ValueError("inconsistent linear system")
    x = [F.zero] * cols
    for r, c in enumerate(pivots):
        if c < cols:
            x[c] = M[r][cols]
    return x


def in_span(basis, v, F):
    """Is v in the row span of basis? (basis rows assumed, not necessarily reduced)"""
    if not basis:
        return all(x == F.zero for x in v)
    M = [row[:] for row in basis] + [list(v)]
    return rank(M, F) == rank(basis, F)
