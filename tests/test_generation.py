"""Generation through the Frattini quotients A/pA: abelian._coords_generate
(plain and with orbit closure) against the echelon and explicit-orbit
oracles, _min_generators against the Smith count, what the two colouring
enumerators run, and generates on any iterable."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import knotcolour
from knotcolour import _intlin, abelian, classify, diagram, errors, \
    surface_data
from knotcolour._intlin import (
    inverse_unimodular, mat_mul, mat_pow, smith_mod)
from knotcolour.errors import BadParameters

from util import (
    TREFOIL_L, construction_spy, rand_unimodular, slow_coords_generate,
    slow_orbit_generate)

ORDERS = (2, 4, 6, 12, 225)
M_CHOICES = (2, 3, 4, 7)
FIXED_ORDERS = ((4, 6), (9, 3), (5, 25), (6, 10, 15), (2, 2, 2))
# every order above and in random_orbit_spec has its primes among 2, 3, 5


def random_orbit_spec(rng):
    """A GroupSpec with m from M_CHOICES and an action of order dividing
    m, block diagonal over distinct orders from ORDERS: on (Z/n)^k the
    block is Q (P D) Q^-1 mod n, with P a permutation whose cycles have
    lengths dividing m, D diagonal with one unit u (u^m = 1 mod n) per
    cycle, so that P D = D P and (P D)^m = I, and Q unimodular."""
    m = rng.choice(M_CHOICES)
    orders, blocks = [], []
    for n in rng.sample(ORDERS, rng.choice((1, 1, 2))):
        k = rng.choice((1, 2, 3) if n < 225 else (1, 2))
        units = [u for u in range(1, n) if pow(u, m, n) == 1]
        perm, diag, start = list(range(k)), [0] * k, 0
        while start < k:
            size = rng.choice([d for d in range(1, k - start + 1)
                               if m % d == 0])
            cycle = list(range(start, start + size))
            u = rng.choice(units)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a], diag[a] = b, u
            start += size
        B = [[diag[j] if perm[j] == i else 0 for j in range(k)]
             for i in range(k)]
        Q = [list(row) for row in rand_unimodular(rng, k)]
        blocks.append(mat_mul(mat_mul(Q, B), inverse_unimodular(Q)))
        orders += [n] * k
    r = len(orders)
    N, at = [[0] * r for _ in range(r)], 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                N[at + i][at + j] = x % orders[at + i]
        at += len(block)
    Nm = mat_pow(N, m)
    assert all((Nm[i][j] - (i == j)) % orders[i] == 0
               for i in range(r) for j in range(r))
    return abelian.GroupSpec(m, tuple(orders), tuple(map(tuple, N)))


def random_rows(rng, orders):
    """Up to five coordinate rows, sometimes with a repeat and sometimes
    all scaled by a prime dividing |A|, so that they cannot generate."""
    rows = [tuple(rng.randrange(n) for n in orders)
            for _ in range(rng.randrange(6))]
    if rows and rng.randrange(3) == 0:
        rows.append(rng.choice(rows))
    if rng.randrange(4) == 0:
        p = rng.choice([p for p in (2, 3, 5)
                        if any(n % p == 0 for n in orders)])
        rows = [tuple(p * x % n for x, n in zip(row, orders))
                for row in rows]
    return rows


def test_primes_by_trial_division():
    for n in range(1, 400):
        want = [p for p in range(2, n + 1)
                if n % p == 0 and all(p % q for q in range(2, p))]
        assert abelian._primes(n) == want
    assert abelian._primes(999983) == [999983]
    assert abelian._primes(2 * 3 * 5 * 7 * 11 * 13) == [2, 3, 5, 7, 11, 13]
    assert abelian._primes(999983 ** 2 * 4) == [2, 999983]


def test_plain_generation_matches_echelon():
    """_coords_generate agrees with the echelon verdict over mixed orders
    (ranks 1 to 3 from 2, 4, 6, 12, 225, and five fixed order tuples), on
    empty, repeated and scaled rows."""
    seen = set()

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        if rng.randrange(3):
            orders = tuple(rng.choice(ORDERS)
                           for _ in range(rng.randrange(1, 4)))
        else:
            orders = rng.choice(FIXED_ORDERS)
        spec = abelian.unsafe_spec(orders)
        rows = random_rows(rng, orders)
        want = slow_coords_generate(spec, tuple(rows))
        assert abelian._coords_generate(spec, tuple(rows)) == want
        seen.add((bool(rows), want))

    check()
    assert seen == {(False, False), (True, False), (True, True)}


def test_orbit_generation_matches_explicit_orbit():
    """With orbit, _coords_generate agrees with the echelon verdict on
    the m-step act_rows orbit, over random actions of order dividing m in
    (2, 3, 4, 7) on mixed orders and over five make_group specs; some
    draws generate only through their orbits."""
    fixed = (classify.a4_spec(),
             abelian.make_group(7, (2, 2, 2),
                                ((0, 0, 1), (1, 0, 1), (0, 1, 0))),
             abelian.make_group(3, (5, 5), ((0, 4), (1, 4))),
             abelian.make_group(2, (3, 5), ((2, 0), (0, 4))),
             abelian.make_group(6, (9, 3), ((2, 0), (1, 2))))
    seen = set()

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        spec = random_orbit_spec(rng) if rng.randrange(4) \
            else rng.choice(fixed)
        rows = tuple(sorted(set(random_rows(rng, spec.orders))))
        want = slow_orbit_generate(spec, rows)
        assert abelian._coords_generate(spec, rows, True) == want
        seen.add((want, abelian._coords_generate(spec, rows)))

    check()
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("orders", [
    (999983,), (2 * 3 * 5 * 7 * 11 * 13,), (4, 6), (8, 4, 2)])
def test_min_generators_matches_smith_count(orders):
    """_min_generators is the number of invariant factors > 1 of A, and
    reads it off the Frattini table with no Smith call."""
    want = sum(1 for d in smith_mod([()] * len(orders), orders)[1] if d > 1)
    spec = abelian.unsafe_spec(orders)
    with construction_spy() as (_, smith_calls):
        assert surface_data._min_generators(spec) == want
    assert smith_calls == []


@pytest.mark.parametrize("kind", ["surface", "diagram"])
def test_enumerators_run_one_echelon_and_no_orbit(kind, a4):
    """One enumeration runs echelon_mod once, for the kernel, and calls
    neither smith nor act_rows: generation is decided over each A/pA,
    the diagram orbits included."""
    abelian._coords_generate.cache_clear()
    echelons, acts = [], []
    with construction_spy() as (_, smith_calls), \
            pytest.MonkeyPatch.context() as mp:
        # a module that imported echelon_mod by name calls its own binding
        for module in (_intlin, abelian):
            if hasattr(module, "echelon_mod"):
                real = module.echelon_mod
                mp.setattr(module, "echelon_mod",
                           lambda F, mods, real=real:
                           echelons.append(F) or real(F, mods))
        act_rows = abelian.act_rows
        mp.setattr(abelian, "act_rows",
                   lambda rows, spec: acts.append(rows) or
                   act_rows(rows, spec))
        if kind == "surface":
            found = surface_data.enumerate_colourings(TREFOIL_L, a4)
        else:
            found = diagram.enumerate_diagram_colourings(
                diagram.catalog()["3_1^l"], a4)
    assert found
    assert len(echelons) == 1
    assert smith_calls == [] and acts == []


class TestGeneratesArguments:
    def test_one_shot_iterable(self, d6):
        """The elements are read once, so an iterator gives the same
        verdict as a tuple."""
        e = abelian.element(d6, (1,))
        assert abelian.generates((e,))
        assert abelian.generates(iter([e]))
        assert abelian.generates(iter([e]), d6)
        assert abelian.generates(x for x in [e])
        assert not abelian.generates(iter([abelian.zero(d6)]))

    @pytest.mark.parametrize("elems, spec", [
        ([], 5), ([], "x"), (None, 5), ("e", (3,))])
    def test_rejects_a_spec_that_is_not_one(self, elems, spec):
        with pytest.raises(BadParameters,
                           match="^expected a GroupSpec, got "):
            abelian.generates(elems, spec)

    def test_rejects_a_spec_that_is_not_one_with_elements(self, d6):
        with pytest.raises(BadParameters,
                           match="^expected a GroupSpec, got "):
            abelian.generates([abelian.element(d6, (1,))], "x")

    @pytest.mark.parametrize("elems", [5, None, 2.5])
    def test_rejects_a_non_iterable(self, elems):
        with pytest.raises(BadParameters,
                           match="^expected an iterable of GroupElements"):
            abelian.generates(elems)


def test_not_invertible_is_gone():
    assert not hasattr(errors, "NotInvertible")
    assert "NotInvertible" not in knotcolour.__all__
