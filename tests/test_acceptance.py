"""Acceptance suite: one test per headline guarantee, each printing a
single PASS/FAIL line and holding to a wall-clock budget.

Everything here is exact rational arithmetic; there are no numeric
tolerances anywhere, only equalities and strict inequalities.
"""

import dataclasses
import itertools
import json
import math
import random
import time
from fractions import Fraction

from fupcon.cli import main
from fupcon.exact_arith import Moduli, NoDecomposition
from fupcon.hitting import (
    build_certificate,
    crt_witness,
    hitting_check,
    level_condition,
    minimal_level,
    preimage_connected_check,
    preimage_equality_check,
    valuation_level,
    witness_recipe,
)
from fupcon.lifting import PLLoop, lift
from fupcon.loop_design import design_all_nonzero
from fupcon.torus import TorusPoint, apply_f
from fupcon.tower import (
    base_sample_count,
    build_tower,
    choose_params,
    coherent_deep_sample,
    epsilon_bound_check,
    verify_tower,
)

from test_lifting import standard_lift_points

M23 = Moduli.of(2, 3)

Fr = Fraction

SEED = 20260823


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "FAIL" if exc_type else "PASS"
        print(f"{status} {self.name} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"
            )
        return False


def _fiber_point(target, moduli):
    return TorusPoint(tuple(Fr(j, m) for j, m in zip(target, moduli)))


def test_criterion_1_certify_suite():
    """Full verdict table for the reference pair, certificates on both stages."""
    with _Budget("criterion-1 certify suite (2,3)/(2,3)", 60):
        s = (2, 3)
        assert minimal_level(s, M23) == 1
        assert valuation_level(s, M23) == 6

        expected_hit = [False, True, True, True]
        for n, want in zip(range(4), expected_hit):
            assert level_condition(s, M23, n) is want
            assert hitting_check(s, M23, n) is want
            assert preimage_equality_check(s, M23, n) is want
            connected, count = preimage_connected_check(s, M23, n)
            assert connected is want
            assert count == (1 if want else 6)

        first = build_certificate(s, M23, 1)
        assert len(first.witnesses) == 6
        assert first.verify()

        # the certificate at the valuation stage carries the closed-form recipe
        at_valuation = build_certificate(s, M23, 6)
        assert at_valuation.recipe is not None
        assert at_valuation.recipe.cofactor == 7776
        assert at_valuation.recipe.cofactor_parts == (243, 32)
        assert at_valuation.verify()
        assert hitting_check(s, M23, 6)


def test_criterion_2_randomized_witnesses():
    """Fifty random cases: valuation stage dominates, every fiber point gets
    a checked witness, and the checks hold at the valuation stage itself."""
    with _Budget("criterion-2 randomized witness corpus", 120):
        rng = random.Random(SEED)
        pools = [(2,), (3,), (4,), (5,), (7,), (9,), (2, 3), (3, 4), (2, 5), (3, 5)]
        collected = 0
        attempts = 0
        while collected < 50 and attempts < 5000:
            attempts += 1
            moduli = Moduli(rng.choice(pools))
            s = tuple(
                rng.choice([v for v in range(-30, 31) if v != 0])
                for _ in range(moduli.r)
            )
            try:
                val = valuation_level(s, moduli)
            except NoDecomposition:
                continue
            if moduli.product() ** (val + 1) > 10**5:
                continue
            mini = minimal_level(s, moduli)
            assert val >= mini
            assert level_condition(s, moduli, val)
            assert hitting_check(s, moduli, val)
            assert witness_recipe(s, moduli, val) is not None
            for target in itertools.product(*[range(m) for m in moduli]):
                k = crt_witness(s, moduli, val, target)
                got = standard_lift_points(s, val + 1, moduli, k)[k]
                assert got == _fiber_point(target, moduli)
            collected += 1
        assert collected == 50, f"only {collected} usable cases in {attempts} draws"


def test_criterion_3_criterion_agreement():
    """The sweep check and the divisibility test agree everywhere tried,
    including the prime-power modulus with a shared factor."""
    with _Budget("criterion-3 sweep/divisibility agreement", 120):

        def brute(s, moduli, n):
            m_pow = [m ** (n + 1) for m in moduli]
            period = math.lcm(
                *(mp // math.gcd(abs(si), mp) for si, mp in zip(s, m_pow))
            )
            targets = set(itertools.product(*[range(m) for m in moduli]))
            seen = set()
            for k in range(period):
                key = []
                for si, m, mp in zip(s, moduli, m_pow):
                    num = (si * k) % mp
                    if num % (m**n):
                        break
                    key.append(num // (m**n))
                else:
                    seen.add(tuple(key))
            return seen == targets

        checked = 0
        for values in [(2,), (3,), (4,), (5,), (2, 3), (3, 4)]:
            moduli = Moduli(values)
            entries = range(-9, 10)
            for s in itertools.product(*[entries] * moduli.r):
                if any(v == 0 for v in s):
                    continue
                for n in range(3):
                    if moduli.product() ** (n + 1) > 10**4:
                        continue
                    want = level_condition(s, moduli, n)
                    assert hitting_check(s, moduli, n) is want
                    checked += 1
        assert checked > 500

        # the shared-factor case: no clean split, yet the minimal stage is 1
        m4 = Moduli.of(4)
        assert minimal_level((2,), m4) == 1
        assert not brute((2,), (4,), 0)
        assert brute((2,), (4,), 1)
        assert hitting_check((2,), m4, 0) is False
        assert hitting_check((2,), m4, 1) is True


def test_criterion_4_lifts_and_homotopy():
    """Random homotopic pairs: integer-time lift values agree, and stage
    lifts cohere under the covering map."""
    with _Budget("criterion-4 lift and homotopy suite", 120):
        rng = random.Random(SEED + 1)
        windings = [(1, 1), (2, 3), (-3, 2), (5, -7)]
        for s in windings:
            for _ in range(10):
                pieces = rng.randint(2, 5)
                inner = [
                    tuple(Fr(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])) for _ in s)
                    for _ in range(pieces - 1)
                ]
                loop = PLLoop(
                    ((Fr(0), Fr(0)), *inner, tuple(Fr(v) for v in s))
                )
                straight = PLLoop.straight(s)
                assert tuple(loop.winding()) == s
                for n in range(3):
                    count = 20
                    bent_path = lift(loop, n, M23, count)
                    straight_path = lift(straight, n, M23, count)
                    assert (
                        [bent_path.block_point(k) for k in range(count + 1)]
                        == [straight_path.block_point(k) for k in range(count + 1)]
                        == standard_lift_points(s, n, M23, count)
                    )
                for n in range(4):
                    top = lift(loop, n + 1, M23, horizon=2)
                    low = lift(loop, n, M23, horizon=2)
                    for up, down in zip(top.breakpoints, low.breakpoints):
                        assert apply_f(TorusPoint(tuple(up)), M23) == TorusPoint(
                            tuple(down)
                        )


def test_criterion_5_winding_repair():
    """Two hundred random valid families come out with no zero entries and
    the exact advertised combination."""
    with _Budget("criterion-5 winding repair corpus", 120):
        rng = random.Random(SEED + 2)
        for _ in range(200):
            r = rng.randint(1, 4)
            family = []
            for i in range(r):
                row = [rng.randint(-6, 6) for _ in range(r)]
                if row[i] == 0:
                    row[i] = rng.choice([-3, -2, -1, 1, 2, 3])
                family.append(tuple(row))
            design = design_all_nonzero(family)
            assert design.final.admissible
            assert design.coefficients[0] == 1
            expected = tuple(
                sum(c * loop[j] for c, loop in zip(design.coefficients, family))
                for j in range(r)
            )
            assert tuple(design.final) == expected
            assert tuple(design.loop.winding()) == expected


def test_criterion_6_tower():
    """The reference tower: exact parameters, all level checks, and twenty
    coherent deep points within epsilon of the base sample."""
    with _Budget("criterion-6 tower for epsilon 1/2", 120):
        params = choose_params(Fr(1, 2), M23, (1, 1))
        assert params.n0 == 3
        assert params.delta == Fr(1, 108)
        assert params.n1 == 1
        tower = build_tower(PLLoop.straight((1, 1)), params, M23)
        assert len(tower.levels) == 6
        report = verify_tower(tower)
        assert report.all_ok
        for check in report.checks:
            assert check.connected and check.contains_base
            assert check.bonding_into_previous in (None, True)
            assert check.forward_equality in (None, True)
        count = base_sample_count(tower.base_loop, params.delta)
        cands = coherent_deep_sample(tower, 20)
        res = epsilon_bound_check(tower, count, cands)
        assert res.ok
        assert res.matched == res.candidates == 20
        assert res.max_distance_with_tail == Fr(271, 4608)
        assert res.max_distance_with_tail < params.epsilon


def test_criterion_7_negative_controls():
    """Corrupt inputs are flagged: broken bonding, a too-small certificate
    stage, and a sparse base sample all fail their checks."""
    with _Budget("criterion-7 negative controls", 120):
        params = choose_params(Fr(1, 2), M23, (1, 1))
        tower = build_tower(PLLoop.straight((1, 1)), params, M23)

        # (a) truncate a middle level: the bonding check must go red
        arc = tower.levels[2].arcs[0]
        from fupcon.torus import SegmentSet

        half = SegmentSet(
            arcs=(dataclasses.replace(arc, length=arc.length / 2),), points=()
        )
        levels = list(tower.levels)
        levels[2] = half
        broken = dataclasses.replace(tower, levels=tuple(levels))
        report = verify_tower(broken)
        assert not report.all_ok
        assert any(c.bonding_into_previous is False for c in report.checks)

        # (b) force the certificate stage below the minimal stage: the first
        # preimage level falls apart into the full fiber count
        low = dataclasses.replace(choose_params(Fr(1, 2), M23, (2, 3)), n1=0)
        bad_tower = build_tower(PLLoop.straight((2, 3)), low, M23)
        bad_report = verify_tower(bad_tower)
        assert not bad_report.all_ok
        disconnected = [c for c in bad_report.checks if not c.connected]
        assert disconnected and disconnected[0].component_count == 6

        # (c) a base sample violating the delta density loses candidates:
        # the single sample loop(0)
        cands = coherent_deep_sample(tower, 20)
        sparse = epsilon_bound_check(tower, 1, cands)
        assert not sparse.ok
        assert sparse.matched < sparse.candidates


def test_criterion_8_cli_contract(tmp_path, capsys):
    """Reports are byte-identical across runs and every exit code is
    reachable exactly as documented."""
    with _Budget("criterion-8 CLI determinism and exit codes", 120):
        certify = ["certify", "--moduli", "2,3", "--winding", "2,3",
                   "--range", "0..3"]
        tower = ["tower", "--moduli", "2,3", "--winding", "1,1",
                 "--epsilon", "1/2"]
        for argv in (certify, tower):
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert first == second
            json.loads(first)

        table = [
            (certify, 0),
            (["tower", "--moduli", "2,3", "--winding", "2,3",
              "--epsilon", "1/2", "--n1", "0"], 1),
            (["certify", "--moduli", "2,4", "--winding", "1,1"], 2),
            (certify[:-1] + ["0..6", "--size-guard", "100"], 3),
            (certify + ["--out", str(tmp_path / "no" / "dir" / "r.json")], 4),
        ]
        for argv, want in table:
            assert main(argv) == want, argv
            capsys.readouterr()
