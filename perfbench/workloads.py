"""Seeded op lists for the three benchmark workloads.

An op is one `fupcon` CLI invocation (an argv vector) with the outcome the
generator expects from it and its closed-form cost estimate (see costs.py).
The seed picks the op contents; the plan's shape -- how many ops of each
class, and for certify and combine how many ops near each estimated cost --
is fixed, so every seed puts the same load on the program and runs stay
comparable across seeds.

Ops never run while a plan is generated; candidates are accepted or
rejected on their estimates alone.
"""

import itertools
import json
import random
from dataclasses import astuple, dataclass
from pathlib import Path

import costs

WORKLOADS = ("tower-sampling", "certify-geometry", "combine-loops")

# Plans of seeds 0..FROZEN_SEEDS-1 are kept in plans.json, and expected.json
# holds the outcome of every op in them (both written by record_expected.py).
# The estimates behind a plan come from the code under test, so a change to
# image_period or choose_params would otherwise draw other ops for these
# seeds and leave them unchecked against the reference.
FROZEN_SEEDS = 11
PLANS = Path(__file__).resolve().parent / "plans.json"

# Written by export ops, relative to the checkout root (reports name it).
EXPORT_DIR = ".perfbench_out/export"
DEFAULT_SIZE_GUARD = 10**6


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    klass: str
    expect_exit: int
    # results.verified (certify, tower) or results.all_nonzero (combine);
    # None for export, whose report has no verdict.
    expect_verdict: bool | None
    estimate: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _tower_op(klass, moduli, s, epsilon, n1=None):
    est, guard = costs.tower_cost(moduli, s, epsilon, n1)
    if guard > DEFAULT_SIZE_GUARD:
        raise ValueError(f"tower op over the size guard: {moduli} {s}")
    argv = ["tower", "--moduli", _csv(moduli), f"--winding={_csv(s)}",
            "--epsilon", epsilon]
    if n1 is not None:
        argv += ["--n1", str(n1)]
    negative = n1 is not None
    return Op(tuple(argv), klass, 1 if negative else 0, not negative, est)


def _signs(rng, entries):
    return tuple(e * rng.choice((1, -1)) for e in entries)


def _sign_patterns(mags):
    return [tuple(m * g for m, g in zip(mags, signs))
            for signs in itertools.product((1, -1), repeat=len(mags))]


# tower-sampling: (class, moduli, windings, epsilon, n1 override, ops per
# plan).  Each class cycles through its windings, as often each, in a seeded
# order, so every plan holds the same ops and seeds differ in their order:
# a seed that drew the costlier windings would load the program more.
# Entries are the smallest coprime to the moduli; larger ones grow the base
# sample (and the cost) with |s|, e.g. (5,7) on (2,3) at epsilon 1/2 costs
# ~25x (1,1).  (2,5) runs at epsilon 1, because at 1/2 one op costs ~9.5 s,
# most of a plan; the epsilon-1/4 class is one op (~3 s).  The negative
# control (2,3) with --n1 0 disconnects the first preimage level and exits
# 1.  A plan is ~20 s of ops, in cost order 28% coarse (~0.14 s), 41% light
# (~0.6 s), 21% negative (~0.85 s), 10% wide and deep.  So the median falls
# in the middle of the light class and, in a 30-s run of ~45 ops, the tail
# percentile (~p77) inside the negative class, whose ops are all alike; a
# percentile near a class boundary would jump between classes from run to
# run.
TOWER_CLASSES = (
    ("coarse", (2, 3), _sign_patterns((1, 1)), "1", None, 8),
    ("light", (2, 3), _sign_patterns((1, 1)), "1/2", None, 12),
    ("negative", (2, 3), [(2, 3)], "1/2", 0, 6),
    ("wide", (2, 5), [(1, 1), (1, -1)], "1", None, 2),
    ("deep", (2, 3), [(1, 1)], "1/4", None, 1),
)


def tower_sampling(rng):
    by_class = []
    for klass, moduli, windings, eps, n1, count in TOWER_CLASSES:
        order = list(windings)
        rng.shuffle(order)
        picked = [order[i % len(order)] for i in range(count)]
        rng.shuffle(picked)
        by_class.append([_tower_op(klass, moduli, s, eps, n1) for s in picked])
    return _interleave(by_class)


def tower_domain():
    """Every op tower_sampling can draw."""
    for klass, moduli, windings, eps, n1, _ in TOWER_CLASSES:
        for s in windings:
            yield _tower_op(klass, moduli, s, eps, n1)


def _interleave(groups):
    """Round-robin over the groups, longest first, so that every prefix of
    the plan holds about the plan's mix of classes."""
    groups = sorted((list(g) for g in groups if g), key=len, reverse=True)
    total = sum(len(g) for g in groups)
    out = []
    taken = [0] * len(groups)
    for step in range(total):
        # the group furthest behind its share of the first step+1 ops
        i = max(
            range(len(groups)),
            key=lambda j: (len(groups[j]) * (step + 1) / total - taken[j]
                           if taken[j] < len(groups[j]) else float("-inf")),
        )
        out.append(groups[i][taken[i]])
        taken[i] += 1
    return out


def _closest(rng, draw, target, tries=400):
    """Draw candidates until one's estimate is within 5% of target; after
    `tries` draws take the closest seen.  The tail percentile falls inside
    the top tier, so the tighter a tier, the less the tail depends on the
    seed."""
    best = None
    for _ in range(tries):
        op = draw(rng)
        if op is None:
            continue
        err = abs(op.estimate / target - 1)
        if best is None or err < best[0]:
            best = (err, op)
        if err <= 0.05:
            break
    return best[1]


# certify-geometry: winding magnitudes per moduli.  Entries with factors of
# the moduli shorten image periods; units make them long.  25 is left out of
# (2,3,5): its ops cost up to 3x what the estimate says.
CERTIFY_ENTRIES = {
    (2, 3): (1, 2, 3, 4, 5, 6, 8, 9, 12),
    (2, 5): (1, 2, 3, 4, 5, 8, 25),
    (2, 3, 5): (1, 2, 3, 4, 5, 9),
}


def _draw_certify(choices, his):
    def draw(rng):
        moduli = rng.choice(choices)
        s = _signs(rng, [rng.choice(CERTIFY_ENTRIES[moduli]) for _ in moduli])
        hi = rng.choice(his)
        lo = rng.randint(0, hi)
        est, guard = costs.certify_cost(moduli, s, lo, hi)
        if guard > DEFAULT_SIZE_GUARD:
            return None
        argv = ("certify", "--moduli", _csv(moduli), f"--winding={_csv(s)}",
                "--range", f"{lo}..{hi}")
        return Op(argv, f"certify{len(moduli)}", 0, True, est)

    return draw


def _draw_export(rng):
    moduli = rng.choice(((2, 3), (2, 5)))
    s = _signs(rng, [rng.choice((1, 2, 3)) for _ in moduli])
    stages = sorted(rng.sample(range(1, 5 if moduli == (2, 3) else 4), rng.randint(1, 2)))
    eps = rng.choice((None, "1/2"))
    est, guard = costs.export_cost(moduli, s, stages, eps)
    if guard > DEFAULT_SIZE_GUARD:
        return None
    argv = ["export", "--moduli", _csv(moduli), f"--winding={_csv(s)}"]
    for n in stages:
        argv += ["--image-n", str(n)]
    if eps is not None:
        argv += ["--tower-levels", "--epsilon", eps]
    argv += ["--out-dir", EXPORT_DIR]
    return Op(tuple(argv), "export", 0, None, est)


# Three cost tiers of fixed size, so that the median lands inside the middle
# tier and the tail inside the top one whatever the seed.  Targets are
# estimate units; one unit costs ~20 us for certify on two moduli and for
# export, ~45 us on (2,3,5) (2-vCPU x86 VM, CPython 3.11), so the tiers sit
# near 60 ms, 250 ms and 750 ms.  Stage ranges end at 2 or 3 on two moduli;
# on (2,3,5) stage 3 exceeds the default size guard (30^5 > 10^6), so they
# end at 1 or 2.
TWO = ((2, 3), (2, 5))
THREE = ((2, 3, 5),)
# (draw, target units, ops per plan)
CERTIFY_TIERS = (
    (_draw_certify(TWO, (2, 3)), 3000, 3),
    (_draw_export, 3000, 5),
    (_draw_certify(THREE, (1, 2)), 1400, 3),
    (_draw_certify(TWO, (2, 3)), 12000, 8),
    (_draw_export, 12000, 3),
    (_draw_certify(THREE, (1, 2)), 5500, 3),
    (_draw_certify(TWO, (2, 3)), 35000, 6),
    (_draw_certify(THREE, (2,)), 23000, 1),
)


def _tiered(rng, tiers):
    return _interleave([
        [_closest(rng, draw, target) for _ in range(count)]
        for draw, target, count in tiers
    ])


def certify_geometry(rng):
    return _tiered(rng, CERTIFY_TIERS)


def _draw_family(r):
    bound = 15 if r == 3 else 5

    def draw(rng):
        family = []
        for i in range(r):
            v = [rng.randint(-bound, bound) for _ in range(r)]
            v[i] = rng.choice((1, -1)) * rng.randint(1, bound)
            family.append(tuple(v))
        argv = ("combine", "--loops=" + ";".join(_csv(v) for v in family))
        return Op(argv, f"combine{r}", 0, True, costs.combine_cost(family))

    return draw


# Tiers as for certify-geometry, each split evenly between r = 3 and r = 4.
# A unit costs ~4.2 us at r = 3 and ~30% more at r = 4, so r = 4 targets are
# scaled down by 1.3 and both halves of a tier take about the same time:
# near 6 ms, 35 ms and 170 ms.  The entry bounds cap the estimate near
# 48000.  The median falls near the middle of the middle tier.
COMBINE_TIERS = tuple(
    (_draw_family(r), round(target / (1.3 if r == 4 else 1)), count)
    for target, count in ((1500, 10), (8000, 30), (40000, 6))
    for r in (3, 4)
)


def combine_loops(rng):
    return _tiered(rng, COMBINE_TIERS)


GENERATORS = {
    "tower-sampling": tower_sampling,
    "certify-geometry": certify_geometry,
    "combine-loops": combine_loops,
}

# One fixed op per workload, run during set-up; the same for every seed.
WARMUP = {
    "tower-sampling": lambda: _tower_op("warmup", (2, 3), (1, 1), "1/2"),
    "certify-geometry": lambda: Op(
        ("certify", "--moduli", "2,3", "--winding=1,1", "--range", "0..2"),
        "warmup", 0, True, costs.certify_cost((2, 3), (1, 1), 0, 2)[0]),
    "combine-loops": lambda: Op(
        ("combine", "--loops=5,3,2,1;1,7,2,3;2,1,9,4;3,2,1,11"),
        "warmup", 0, True, costs.combine_cost(
            [(5, 3, 2, 1), (1, 7, 2, 3), (2, 1, 9, 4), (3, 2, 1, 11)])),
}


def generate(workload: str, seed: int) -> list[Op]:
    """The plan the generator draws for `seed`: same seed, same ops."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def frozen(workload: str, seed: int) -> list[Op] | None:
    """The recorded plan for `seed`, or None above the frozen seeds."""
    # read for every seed, so that set-up does the same work for all
    plans = json.loads(PLANS.read_text())[workload]
    if not 0 <= seed < FROZEN_SEEDS:
        return None
    return [Op(tuple(argv), *rest) for argv, *rest in plans[seed]]


def dump_plans(plans: dict[str, list[list[Op]]]) -> str:
    """plans.json text, one op per line."""
    blocks = []
    for name, seeds in plans.items():
        seed_blocks = ["[\n" + ",\n".join(json.dumps(astuple(op)) for op in ops) + "\n]"
                       for ops in seeds]
        blocks.append(f"{json.dumps(name)}: [\n" + ",\n".join(seed_blocks) + "\n]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"
