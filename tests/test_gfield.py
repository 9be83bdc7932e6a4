import random

import pytest

from rankcov.gfield import (FieldSpec, digits, extension_field,
                            field_from_order, least_modulus, make_field,
                            undigits)
from rankcov import gfield
from rankcov.gfield import _is_irreducible, _poly_mod, _trace


def test_prime_field_trivial_modulus():
    F = make_field(2, 1)
    assert (F.p, F.e, F.q) == (2, 1, 2)
    assert F.add(1, 1) == 0


def test_gf4_modulus_is_unique_irreducible_quadratic():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1


def test_gf9_modulus_matches_exhaustive_search():
    # oracle: scan all 9 monic quadratics over GF(3) in constant-upward order
    expected = None
    for low in range(9):
        c0, c1 = low % 3, low // 3
        poly = (c0, c1, 1)
        if _is_irreducible(make_field(3), poly):
            expected = poly
            break
    F = make_field(3, 2)
    assert F.modulus == expected
    # no root in GF(3)
    for x in range(3):
        assert (F.modulus[0] + F.modulus[1] * x + x * x) % 3 != 0


def least_by_trial_division(F, degree):
    """The least monic polynomial of the degree with no monic factor of
    degree 1..degree/2, found by dividing by every such factor."""
    for low in range(F.q ** degree):
        poly = digits(low, F.q, degree) + (1,)
        if all(_poly_mod(F, poly, digits(f, F.q, d) + (1,))
               for d in range(1, degree // 2 + 1) for f in range(F.q ** d)):
            return poly


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_least_modulus_matches_trial_division(q):
    F = field_from_order(q)
    for degree in range(1, 7):
        assert least_modulus(F, degree) \
            == least_by_trial_division(F, degree), degree


@pytest.mark.parametrize("q,degrees", [(2, 6), (3, 4), (4, 3), (5, 2), (9, 2)])
def test_irreducibility_matches_trial_division_on_every_poly(q, degrees):
    F = field_from_order(q)
    for degree in range(1, degrees + 1):
        for low in range(q ** degree):
            poly = digits(low, q, degree) + (1,)
            assert _is_irreducible(F, poly) == all(
                _poly_mod(F, poly, digits(f, q, d) + (1,))
                for d in range(1, degree // 2 + 1) for f in range(q ** d))


@pytest.mark.parametrize("q,poly", [
    (2, (0, 0, 1)), (2, (1, 0, 1)), (2, (1, 0, 1, 0, 1)), (3, (2, 0, 0, 1)),
    (9, (5, 0, 0, 1)), (25, (3, 0, 0, 0, 0, 1)), (2048, (1234, 0, 1)),
    (4096, (7, 0, 1))])
def test_a_p_th_power_fails_without_polynomial_arithmetic(monkeypatch, q,
                                                           poly):
    # no term at an exponent prime to p: f' = 0, so f = g^p over GF(q)
    F = field_from_order(q)

    def forbidden(*args):
        raise AssertionError("Ben-Or's test ran on a p-th power")
    monkeypatch.setattr(gfield, "_poly_mul", forbidden)
    monkeypatch.setattr(gfield, "_poly_mod", forbidden)
    assert not _is_irreducible(F, poly)


def test_quadratic_moduli_over_fields_without_tables_skip_the_squares(
        monkeypatch):
    # over GF(2^11) every x^2 + b is a square, and x^2 + x + b is read off
    # the trace of b: no candidate reaches Ben-Or's test, which would take
    # about a dozen products of polynomials over GF(2^11) each
    F, calls, mul = field_from_order(2048), [], gfield._poly_mul
    monkeypatch.setattr(gfield, "_poly_mul",
                        lambda G, a, b: calls.append(G is F) or mul(G, a, b))
    assert least_modulus(F, 2) == (1, 1, 1)
    assert calls.count(True) == 0


def test_quadratic_moduli_over_gf_2048_and_gf_4096():
    assert extension_field(2048, 2).modulus == (1, 1, 1)
    assert extension_field(4096, 2).modulus == (512, 1, 1)


@pytest.mark.parametrize("q,modulus", [
    (16384, (512, 1, 1)), (65536, (2048, 1, 1)), (2, (1, 1, 1)),
    (8, (1, 1, 1)), (128, (1, 1, 1)), (8192, (1, 1, 1)),
    (32768, (1, 1, 1))])
def test_quadratic_moduli_in_characteristic_2(q, modulus):
    # Tr(1) = e mod 2, so x^2 + x + 1 is the modulus for odd e
    assert least_modulus(field_from_order(q), 2) == modulus


@pytest.mark.parametrize("e", range(1, 9))
def test_trace_criterion_matches_ben_or_on_every_quadratic(e):
    # x^2 + a x + b, a != 0, is irreducible over GF(2^e) iff Tr(b/a^2) = 1,
    # and Tr is the parity of the bits of b under the mask of basis traces
    F = make_field(2, e)
    mask = sum(_trace(F, 1 << j) << j for j in range(e))
    for b in F.elements():
        assert _trace(F, b) == bin(b & mask).count("1") % 2
    for a in F.elements():
        scale = F.inv(F.mul(a, a)) if a else 0
        for b in F.elements():
            assert _is_irreducible(F, (b, a, 1)) \
                == (a != 0 and _trace(F, F.mul(b, scale)) == 1)
    scan = next(poly for poly in (digits(low, F.q, 2) + (1,)
                                  for low in range(F.q ** 2))
                if _is_irreducible(F, poly))
    assert least_modulus(F, 2) == scan


def test_gf4_multiplication():
    F = make_field(2, 2)
    assert F.mul(2, 2) == 3  # a^2 = a + 1


def test_gf3_arithmetic():
    F = make_field(3)
    assert F.mul(2, 2) == 1
    assert F.neg(1) == 2
    assert F.inv(2) == 2


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    F = make_field(p, e)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems[:5]:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("e", [2, 3, 4])
def test_characteristic_2_add_matches_digitwise_definition(e):
    F = make_field(2, e)
    for a in F.elements():
        da = digits(a, 2, e)
        assert F.neg(a) == sum(((-x) % 2) << t for t, x in enumerate(da))
        for b in F.elements():
            db = digits(b, 2, e)
            assert F.add(a, b) == sum(((x + y) % 2) << t
                                      for t, (x, y) in enumerate(zip(da, db)))
            assert F.sub(a, b) == sum(((x - y) % 2) << t
                                      for t, (x, y) in enumerate(zip(da, db)))


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (3, 7)])
def test_odd_characteristic_add_matches_digitwise_definition(p, e):
    # GF(2187) = GF(3^7) has no tables: every pair of low 4-digit chunks
    # (each entry of the chunk-sum table) plus random full-width pairs
    F = make_field(p, e)
    q = F.q
    if q * q <= 1 << 10:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(a, b) for a in range(p ** 4) for b in range(p ** 4)]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]

    def digitwise(op, a, b):
        return sum(op(x, y) % p * p ** t for t, (x, y)
                   in enumerate(zip(digits(a, p, e), digits(b, p, e))))

    for a, b in pairs:
        assert F.add(a, b) == digitwise(lambda x, y: x + y, a, b)
        assert F.sub(a, b) == digitwise(lambda x, y: x - y, a, b)
        assert F.neg(b) == digitwise(lambda x, y: -y, a, b)


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2), (5, 2)])
def test_frobenius_is_additive(p, e):
    F = make_field(p, e)
    for a in F.elements():
        for b in F.elements():
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


# every field with log/exp tables up to order 64: the prime powers and
# the towers over GF(4) and GF(8)
SMALL_TABLED = sorted((p ** e, 1) for p in range(2, 65)
                      if all(p % d for d in range(2, p))
                      for e in range(1, 7) if p ** e <= 64)
SMALL_TABLED += [(4, 2), (4, 3), (8, 2)]


@pytest.mark.parametrize("q,m", SMALL_TABLED)
def test_tabled_products_agree_with_direct_products_exhaustively(q, m):
    F = extension_field(q, m)
    assert F._exp is not None
    for a in F.elements():
        assert [F.mul(a, b) for b in F.elements()] \
            == [F._mul_direct(a, b) for b in F.elements()]
        if a:
            assert F._mul_direct(a, F.inv(a)) == 1


@pytest.mark.parametrize("q,m", [(243, 1), (256, 1), (729, 1), (961, 1),
                                 (1021, 1), (1024, 1), (4, 5), (32, 2)])
def test_tabled_products_agree_with_direct_products_on_samples(q, m):
    F = extension_field(q, m)
    assert F._exp is not None
    rng = random.Random(F.q)
    for _ in range(2000):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.mul(a, b) == F._mul_direct(a, b)
        if a:
            assert F._mul_direct(a, F.inv(a)) == 1


def test_gf1024_tables_hold_o_q_entries():
    # a q^2-entry product table for GF(1024) held 8.1 MB
    import tracemalloc
    modulus = make_field(2, 10).modulus
    tracemalloc.start()
    try:
        FieldSpec(2, 10, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        make_field(2).inv(0)


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        make_field(4, 1)


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        make_field(2, 17)


def test_same_parameters_give_identical_spec():
    assert make_field(2, 4) is make_field(2, 4)
    assert make_field(3, 2) == FieldSpec(3, 2, make_field(3, 2).modulus)


def test_extension_field_equality_compares_the_modulus():
    # GF(16) over GF(4) encodes elements in another basis than over GF(2)
    assert extension_field(4, 2) != make_field(2, 4)
    assert hash(extension_field(4, 2)) == hash(make_field(2, 4))
    assert extension_field(2, 3) == make_field(2, 3)
    assert extension_field(9, 1) is field_from_order(9)


def test_extension_field_has_no_order_cap():
    E = extension_field(4, 9)  # 2^18 elements, above MAX_ORDER
    assert (E.p, E.e, E.q) == (2, 18, 1 << 18) and E._exp is None
    a, b = 0x2f3a1, 0x1b0c7
    assert E.mul(a, E.inv(a)) == 1
    assert E.mul(a, E.add(b, 1)) == E.add(E.mul(a, b), a)
    assert E.pow(E.add(a, b), 4) == E.add(E.pow(a, 4), E.pow(b, 4))


def test_field_from_order():
    assert field_from_order(8) == make_field(2, 3)
    assert field_from_order(7) == make_field(7)
    with pytest.raises(ValueError):
        field_from_order(12)


def test_large_field_no_tables():
    F = make_field(2, 12)  # above the table cap
    assert F._exp is None
    a, b = 0b101, 0b11010
    assert F.mul(a, F.inv(a)) == 1
    assert F.mul(a, F.add(b, 1)) == F.add(F.mul(a, b), a)


# -- the order gate: bounded trial division, the cap before primality --

@pytest.mark.parametrize("q,message", [
    (0, "field order must be at least 2"),
    (1, "field order must be at least 2"),
    (6, "6 is not a prime power"), (12, "12 is not a prime power"),
    (70000, "70000 is not a prime power"),
    (65537, "field order 65537 exceeds the cap 65536"),
    (131072, "field order 131072 exceeds the cap 65536"),
    # composites above the cap with no prime factor up to 256
    (257 * 263, "field order 67591 exceeds the cap 65536"),
    (1000003 * 1000033, "field order 1000036000099 exceeds the cap 65536")])
def test_field_from_order_messages(q, message):
    with pytest.raises(ValueError) as exc:
        field_from_order(q)
    assert str(exc.value) == message


@pytest.mark.parametrize("p", [1, 4, 241 * 251])
def test_make_field_rejects_a_non_prime(p):
    with pytest.raises(ValueError) as exc:
        make_field(p)
    assert str(exc.value) == f"{p} is not prime"


def test_largest_prime_below_the_divisor_bound_is_factored():
    # 251 is the largest prime up to isqrt(2^16) = 256: a bound below it
    # would read 251^2 as prime
    F = field_from_order(251 ** 2)
    assert F is make_field(251, 2)
    assert (F.p, F.e) == (251, 2)


# -- the digit codec against the plain division loop --

# every prime power up to 36, where int() parses the digits, and two above
CODEC_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
                32, 256, 2048)
CODEC_LENGTHS = (0, 1, 8, 9, 25, 64)


def loop_digits(code, base, n):
    out = []
    for _ in range(n):
        code, d = divmod(code, base)
        out.append(d)
    return tuple(out)


def loop_undigits(values, base):
    code = 0
    for d in reversed(list(values)):
        code = code * base + d
    return code


@pytest.mark.parametrize("q", CODEC_ORDERS)
def test_codec_matches_the_division_loop(q):
    from rankcov.ambient import index_to_mat, mat_index
    from rankcov.matlin import Mat
    F = field_from_order(q)
    rng = random.Random(q)
    for n in CODEC_LENGTHS:
        codes = [0, q ** n - 1] + [rng.randrange(q ** n) for _ in range(20)]
        for code in codes:
            d = loop_digits(code, q, n)
            assert digits(code, q, n) == d
            assert undigits(d, q) == undigits(list(d), q) == code
            if n:
                M = index_to_mat(F, 1, n, code)
                assert M == Mat(F, 1, n, d)
                assert mat_index(M) == code
        for _ in range(5):
            values = [rng.randrange(q) for _ in range(n)]
            assert undigits(values, q) == loop_undigits(values, q)
    # digits keeps the n low digits of a longer code, as the loop does
    assert digits(q ** 9 + 5, q, 8) == loop_digits(q ** 9 + 5, q, 8)
