import random

import pytest

from blockposets.gf import (
    ExtensionField,
    PrimeField,
    least_irreducible,
    nullspace,
    poly_mul,
    poly_roots,
    rank,
    solve,
)

from oracles import (
    extension_mul_by_loop,
    field_elements,
    field_pow,
    frobenius,
)


# Test-only helpers: evaluation and matrix routines the library does not need.


def poly_eval(f, x, F):
    """Horner evaluation at a field point."""
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def mat_vec(A, v, F):
    out = []
    for row in A:
        s = F.zero
        for a, x in zip(row, v):
            if a != F.zero and x != F.zero:
                s = F.add(s, F.mul(a, x))
        out.append(s)
    return out


class TestFieldArithmetic:
    def test_gf4_product(self):
        # GF(4) = GF(2)[x]/(x^2+x+1): x * (x+1) = x^2 + x = 1
        F = ExtensionField(2, 2)
        assert F.modulus == (1, 1, 1)
        x = (0, 1)
        x1 = (1, 1)
        assert F.mul(x, x1) == F.one

    def test_gf2_inverse(self):
        F = PrimeField(2)
        assert F.inv(1) == 1
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    def test_gf4_frobenius(self):
        F = ExtensionField(2, 2)
        assert frobenius(F, (0, 1)) == (1, 1)  # x^2 = x + 1

    def test_product_matches_loop_oracle(self):
        # the polynomial layer's product against the schoolbook loop and
        # top-down reduction that ExtensionField.mul ran before, every pair
        for p, d in ((2, 3), (3, 2), (2, 4), (5, 2), (3, 3)):
            F = ExtensionField(p, d)
            elements = field_elements(F)
            for a in elements:
                for b in elements:
                    assert F.mul(a, b) == extension_mul_by_loop(F, a, b)

    def test_inverse_everywhere(self):
        for F in (PrimeField(5), ExtensionField(2, 3), ExtensionField(3, 2)):
            for a in field_elements(F):
                if a == F.zero:
                    continue
                assert F.mul(a, F.inv(a)) == F.one
                assert field_pow(F, a, -2) == F.mul(F.inv(a), F.inv(a))

    def test_power_order(self):
        for F in (PrimeField(7), ExtensionField(2, 4), ExtensionField(5, 2)):
            for a in field_elements(F):
                assert field_pow(F, a, F.q) == a  # a^(q) = a


class TestLeastIrreducible:
    def test_gf2_quadratic(self):
        assert least_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1, the only one

    def test_gf2_cubic(self):
        # two irreducible cubics; x^3+x+1 encodes as 1011 < 1101
        assert least_irreducible(2, 3) == (1, 1, 0, 1)

    def test_gf3_quadratic(self):
        # oracle: least quadratic without a root in GF(3)
        F = PrimeField(3)
        found = None
        for n in range(9):
            f = [n % 3, n // 3, 1]
            if all(poly_eval(f, a, F) != 0 for a in range(3)):
                found = tuple(f)
                break
        assert found == (1, 0, 1)  # x^2 + 1
        assert least_irreducible(3, 2) == found

    def test_modulus_is_irreducible(self):
        for p, d in [(2, 4), (3, 3), (5, 2)]:
            assert _is_irreducible_int(list(least_irreducible(p, d)), p)

    def test_matches_rabin_scan_over_int_coefficients(self):
        cases = [(2, d) for d in range(2, 11)] + [(3, d) for d in range(2, 7)]
        cases += [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2), (13, 3)]
        assert len(cases) == 21
        for p, d in cases:
            assert least_irreducible(p, d) == least_irreducible_by_rabin(p, d)


# The integer-coefficient Rabin test least_irreducible used before it moved
# onto the generic polynomial layer; kept as its oracle.


def _int_poly_mod(f, g, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        c = (f[-1] * inv_lead) % p
        shift = len(f) - len(g)
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
        while f and f[-1] == 0:
            f.pop()
    return f


def _int_poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _int_poly_powmod(base, n, mod, p):
    result = [1]
    base = _int_poly_mod(base, mod, p)
    while n:
        if n & 1:
            result = _int_poly_mod(_int_poly_mul(result, base, p), mod, p)
        base = _int_poly_mod(_int_poly_mul(base, base, p), mod, p)
        n >>= 1
    return result


def _int_poly_x_power_minus_x(n, f, p):
    """x^(p^n) - x mod f."""
    xq = _int_poly_powmod([0, 1], p ** n, f, p) + [0, 0]
    xq[1] -= 1
    return _int_poly_mod(xq, f, p)


def _is_irreducible_int(f, p):
    """Rabin: x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for each
    prime r dividing n = deg f."""
    n = len(f) - 1
    if _int_poly_x_power_minus_x(n, f, p):
        return False
    for r in range(2, n + 1):
        if n % r or any(r % q == 0 for q in range(2, r)):
            continue
        a, b = list(f), _int_poly_x_power_minus_x(n // r, f, p)
        while b:
            a, b = b, _int_poly_mod(a, b, p)
        if len(a) > 1:
            return False
    return True


def least_irreducible_by_rabin(p, d):
    for n in range(p ** d):
        f = [(n // p ** i) % p for i in range(d)] + [1]
        if _is_irreducible_int(f, p):
            return tuple(f)
    return None


class TestPolyRoots:
    def test_fermat_polynomial(self):
        # x^q - x has every element of GF(q) as a root
        for F in (PrimeField(2), PrimeField(5), ExtensionField(2, 3),
                  ExtensionField(3, 2)):
            f = [F.zero, F.neg(F.one)] + [F.zero] * (F.q - 2) + [F.one]
            roots = poly_roots(f, F)
            assert sorted(map(F.encode, roots)) == list(range(F.q))

    def test_random_split_polynomials(self):
        # products of distinct linear factors, reconstructed from the roots
        rng = random.Random(0x50117)
        fields = [PrimeField(3), PrimeField(7), ExtensionField(2, 2),
                  ExtensionField(5, 2)]
        for i in range(60):
            F = fields[i % len(fields)]
            count = rng.randrange(1, min(F.q, 4) + 1)
            picked = rng.sample(field_elements(F), count)
            f = [F.one]
            for r in picked:
                f = poly_mul(f, [F.neg(r), F.one], F)
            roots = poly_roots(f, F)
            assert sorted(map(F.encode, roots)) == \
                sorted(map(F.encode, picked))
            for r in roots:
                assert poly_eval(f, r, F) == F.zero


class TestLinearAlgebra:
    def test_rank_identity(self):
        F = PrimeField(5)
        for n in (1, 3, 6):
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            assert rank(identity, F) == n

    def test_rank_nullity(self):
        rng = random.Random(3)
        F = PrimeField(3)
        for _ in range(60):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            A = [[F.rand(rng) for _ in range(cols)] for _ in range(rows)]
            kernel = nullspace(A, F)
            assert rank(A, F) + len(kernel) == cols
            for v in kernel:
                assert mat_vec(A, v, F) == [F.zero] * rows
            if kernel:
                assert rank(kernel, F) == len(kernel)

    def test_nullspace_extension_field(self):
        # over GF(4) the rows (1, x) and (x, x^2) are dependent: kernel 1
        F = ExtensionField(2, 2)
        x = (0, 1)
        A = [[F.one, x], [x, F.mul(x, x)]]
        (v,) = nullspace(A, F)
        assert mat_vec(A, v, F) == [F.zero, F.zero]

    def test_solve(self):
        F = PrimeField(7)
        A = [[1, 2], [3, 4]]
        x = solve(A, [5, 6], F)
        assert mat_vec(A, x, F) == [5, 6]

    def test_solve_inconsistent(self):
        F = PrimeField(2)
        with pytest.raises(ValueError):
            solve([[1, 0], [1, 0]], [1, 0], F)
