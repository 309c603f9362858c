"""The benchmark's workloads: inputs made from a seed, the calls, their known answers.

Each workload is one pass function over crossvec's public API.  A pass
times its calls into named groups and checks every answer against the
value it is known to have.  Every workload reports three groups, in the
order of `PARTS`, so that the end-to-end metrics `part1_s`..`part3_s`
exist on all of them:

  certify   part1 certify_small_s   f(2..4,2), `crossvec search` on f(2,3)
            part2 certify_f33_s     f(3,3)=9 found, size 10 refuted serially
                                    (refuted on 2 workers too, in wall_s only)
            part3 inbox_w4_s        in-box maxima on [0,3]^4 and [0,4]^4, k=2
  widebox   part1 exists_uniform_s  exists_family(3,3,7) on its auto box [0,18]^3
            part2 exists_thresholds_s  exists_family((2,3,3),3,6) on [0,15]^3
            part3 ranked_s          ranked_max_family_size, many small slices
  sweep     part1 verify_large_s    verify families of >= 1000 vectors
            part2 verify_small_s    verify the smaller families
            part3 poset_s           maximum-antichain lattice pipeline

`certify` is clique-bound, `widebox` graph-build-bound and `sweep`
verify-bound, so a change to one layer should move one workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from time import perf_counter

import crossvec as cv
from crossvec import cli

WORKLOADS = ("certify", "widebox", "sweep")

PARTS = {
    "certify": ("certify_small_s", "certify_f33_s", "inbox_w4_s"),
    "widebox": ("exists_uniform_s", "exists_thresholds_s", "ranked_s"),
    "sweep": ("verify_large_s", "verify_small_s", "poset_s"),
}

# The kind of work that dominates each group, and the rest of each
# workload's pass: interpreter-bound ("py") or numpy array work ("np").
KIND = {
    "certify_small_s": "py",
    "certify_f33_s": "py",
    "inbox_w4_s": "py",
    "exists_uniform_s": "np",
    "exists_thresholds_s": "np",
    "ranked_s": "py",
    "verify_large_s": "np",
    "verify_small_s": "py",
    "poset_s": "py",
    "certify": "py",
    "widebox": "np",
    "sweep": "np",
}

# Named metrics that are sums of parts (the two widebox auto-box searches).
SUMS = {"exists_autobox_s": ("exists_uniform_s", "exists_thresholds_s")}

# Families with at least this many vectors count toward verify_large_s.
LARGE = 1000

# Generous enough that the seed code never truncates; a truncated search
# is a failed check, never a pass.
LIMITS = cv.SearchLimits(time_limit=150.0, node_limit=None)

# Known answers.  A test replaces one of them to show that a wrong
# expectation fails the run.
EXPECTED = {
    "f(2,2)": 2,
    "f(3,2)": 3,
    "f(4,2)": 4,
    "f(2,3)": 4,
    "f(3,3)": 9,
    "inbox k=2 w=4": 8,
    "chain lattice 2,2,2": (8, 3),
    "lattice of 5+5+5": True,
    "interval order lattice width": 1,
    "reduced poset lattice width at most": 4,
}


class Pass:
    """One pass over a workload: the time of each grouped call, and answer checks.

    `call(fn, args, kwargs, label)` runs one library call; the runner
    passes a plain call or a traced one.  Calls come in the same order
    on every pass, so the runner can match them up across passes.
    """

    def __init__(self, call):
        self._call = call
        self.calls: list[tuple[str | None, float]] = []  # (group, seconds), in call order
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, group, label, fn, *args, **kwargs):
        """Call fn, recording its time under `group` (None: counts only in wall_s)."""
        t0 = perf_counter()
        result = self._call(fn, args, kwargs, label)
        self.calls.append((group, perf_counter() - t0))
        return result

    def group_seconds(self, group: str) -> float:
        return sum(t for g, t in self.calls if g == group)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def witness_ok(self, label, family, ks, size) -> bool:
        report = self.run(None, label, cv.verify, family, ks)
        return report.ok and report.size == size == len(family)


# ---------------------------------------------------------------------------
# Inputs.


def _random_poset(rng, n, p):
    labels = [f"e{i}" for i in range(1, n + 1)]
    relations = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return cv.Poset(labels, relations)


def make_inputs(workload: str, seed: int, quick: bool = False) -> dict:
    """The inputs of one workload; the same seed gives the same inputs.

    `certify` and `widebox` are fixed instances.  `sweep` draws the
    lexicographic coordinate sequences, the generalized-product
    thresholds and the posets from the seed, keeping every size fixed
    except the few generalized products, so the work per pass barely
    depends on the seed.  `quick` shrinks every workload for smoke tests.
    """
    if workload == "certify":
        return {
            "small": ((2, 2), (3, 2), (4, 2)),
            # quick: f(2,3) stands in for f(3,3)
            "f33": (2, 3) if quick else (3, 3),
            "inbox_sides": (3,) if quick else (3, 4),
        }
    if workload == "widebox":
        return {
            "uniform": (2, 3, 4) if quick else (3, 3, 7),
            "thresholds": ((2, 3, 3), 3, 4 if quick else 6),
            "ranked": ((3, 4), (2, 5)) + tuple((k, 3) for k in range(3, 6 if quick else 11)),
        }
    if workload != "sweep":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    max_k = 4 if quick else 6
    lex = {}
    for k in range(1, max_k + 1):
        for w in range(2, 6):
            needed = w * (k - 1) // k
            lex[k, w] = [
                tuple(rng.randrange(1, w + 1) for _ in range(needed + rng.randrange(3)))
                for _ in range(5)
            ]
    gen = []
    for _ in range(5):
        w = rng.randrange(2, 5)
        gen.append(tuple(sorted(rng.randrange(1, 7) for _ in range(w))))
    intervals = [
        cv.random_interval_order(rng.randrange(1, 11), rng.randrange(10**9))
        for _ in range(40 if quick else 800)
    ]
    posets = []
    while len(posets) < (20 if quick else 4000):
        p = _random_poset(rng, rng.randrange(4, 10), rng.uniform(0.2, 0.6))
        # The reduction needs width <= 3 here and no 3+3 subposet.
        if cv.width(p)[0] <= 3 and not cv.contains_k_plus_k(p, 3)[0]:
            posets.append(p)
    return {
        "max_k": max_k,
        "lex": lex,
        "gen": gen,
        "chains": [cv.disjoint_chains(k, k) for k in (2, 3, 4)],
        "chains_222": cv.disjoint_chains(2, 2, 2),
        "chains_555": cv.disjoint_chains(*((3,) * 3 if quick else (5,) * 3)),
        "intervals": intervals,
        "posets": posets,
    }


# ---------------------------------------------------------------------------
# Passes.


def certify(p: Pass, inp: dict) -> None:
    for k, w in inp["small"]:
        name = f"f({k},{w})"
        res = p.run("certify_small_s", name, cv.max_family_size, k, w, LIMITS)
        want = EXPECTED[name]
        p.check(
            res.best_size == want
            and res.exhaustive
            and not res.truncated
            and p.witness_ok(name, res.witness, k, want),
            f"{name}: got {res.best_size}, exhaustive={res.exhaustive}",
        )

    out = io.StringIO()
    argv = ["search", "--k", "2", "--w", "3", "--deterministic", "--format", "records"]
    with contextlib.redirect_stdout(out):
        code = p.run("certify_small_s", "cli f(2,3)", cli.main, argv)
    text = out.getvalue()
    want = EXPECTED["f(2,3)"]
    ok = code == 0 and f"best_size\t{want}\n" in text and "exhaustive\tyes\n" in text and "# witness\n" in text
    if ok:
        witness = p.run(None, "cli f(2,3)", cv.family_from_text, text.split("# witness\n", 1)[1])
        ok = p.witness_ok("cli f(2,3)", witness, 2, want)
    p.check(ok, f"crossvec search --k 2 --w 3: exit {code}, output {text[:200]!r}")

    k, w = inp["f33"]
    name = f"f({k},{w})"
    m = EXPECTED[name]
    label = f"{name} find {m}"
    hit = p.run("certify_f33_s", label, cv.exists_family, k, w, m, box=cv.compression_box(k, w, m), limits=LIMITS)
    p.check(
        hit.found is True and hit.best_size == m and p.witness_ok(label, hit.witness, k, m),
        f"{label}: found={hit.found}, best {hit.best_size}",
    )
    # The refutation runs serially (certify_f33_s) and on 2 workers.  The
    # parallel run's time counts only in wall_s: it waits for the slower
    # of the two CPUs, which a shared host slows independently, so its
    # spread is too wide for a group of its own.
    box = cv.compression_box(k, w, m + 1)
    for group, workers in (("certify_f33_s", 1), (None, 2)):
        label = f"{name} refute {m + 1} on {workers} worker{'s' * (workers > 1)}"
        ref = p.run(group, label, cv.exists_family, k, w, m + 1, box=box, limits=LIMITS, workers=workers)
        p.check(
            ref.found is False and ref.exhaustive and not ref.truncated and ref.best_size == m,
            f"{label}: found={ref.found}, exhaustive={ref.exhaustive}, truncated={ref.truncated}",
        )

    want = EXPECTED["inbox k=2 w=4"]
    for side in inp["inbox_sides"]:
        box = cv.SearchBox((side,) * 4)
        label = f"in-box {box} k=2"
        res = p.run("inbox_w4_s", label, cv.max_family_in_box, 2, box, LIMITS)
        p.check(
            res.best_size == want and not res.truncated and p.witness_ok(label, res.witness, 2, want),
            f"{label}: got {res.best_size}, truncated={res.truncated}",
        )


def widebox(p: Pass, inp: dict) -> None:
    for group, (ks, w, m) in (
        ("exists_uniform_s", inp["uniform"]),
        ("exists_thresholds_s", inp["thresholds"]),
    ):
        # Both targets are at most the generalized product size, so a
        # family exists; the search must find one on the default auto box.
        label = f"exists({ks},{w},{m})"
        res = p.run(group, label, cv.exists_family, ks, w, m, limits=LIMITS)
        p.check(
            res.found is True and res.exhaustive and p.witness_ok(label, res.witness, ks, m),
            f"{label}: found={res.found}, best {res.best_size}",
        )
    for k, w in inp["ranked"]:
        label = f"ranked({k},{w})"
        res = p.run("ranked_s", label, cv.ranked_max_family_size, k, w, LIMITS)
        want = k ** (w - 1)
        p.check(
            res.best_size == want and res.exhaustive and p.witness_ok(label, res.witness, k, want),
            f"{label}: got {res.best_size}, want {want}, exhaustive={res.exhaustive}",
        )


def _nonneg(f):
    return f.translate([-min(v[i] for v in f) for i in range(f.width)])


def max_w(k: int) -> int:
    # Criterion 03 goes to w = 6 for every k.  The two k = w = 6 families
    # (7,776 vectors) are left out: one verify of each takes about 8 s,
    # too long to repeat within a run, and single samples of it spread by
    # 20% on a shared host.  The largest kept are 3,125 vectors.
    return 5 if k == 6 else 6


def _sweep_families(p: Pass, inp: dict):
    """The criterion-03 constructions: (name, family, thresholds, exact size)."""
    fams = []

    def make(name, ks, size, fn, *args):
        fams.append((name, p.run(None, "construct", fn, *args), ks, size))

    for k in range(1, inp["max_k"] + 1):
        for w in range(2, max_w(k) + 1):
            make(f"product({k},{w})", k, k ** (w - 1), cv.product_family, k, w)
        for w in range(2, 6):
            for tau in inp["lex"][k, w]:
                make(f"lex({k},{w},{tau})", k, k ** (w - 1), cv.lexicographic_family, k, w, tau)
        for rank_choice in (2 * k - 1, 2 * k - 2):
            deficient = (k % 3 == 1 and rank_choice == 2 * k - 1) or (
                k % 3 == 2 and rank_choice == 2 * k - 2
            )
            make(f"cyclic({k},{rank_choice})", k, k * k - deficient, cv.cyclic_family, k, rank_choice)
        if k % 3 == 1:
            base = p.run(None, "construct", cv.cyclic_family, k, 2 * k - 1)
            extra = p.run(None, "construct", cv.cyclic_fixup_vector, k)
            fams.append((f"cyclic fix-up({k})", cv.Family(3, list(base) + [extra]), k, k * k))
        f = cv.Family(1, [(0,)])
        for w in range(2, max_w(k) + 1):
            c = max(max(v) for v in f) + 1
            f = _nonneg(p.run(None, "construct", cv.inductive_lift, f, k, c))
            fams.append((f"lift({k},{w})", f, k, k ** (w - 1)))
    for ks in inp["gen"]:
        make(f"generalized product{ks}", ks, math.prod(ks[1:]), cv.generalized_product_family, ks)
    return fams


def sweep(p: Pass, inp: dict) -> None:
    for name, fam, ks, size in _sweep_families(p, inp):
        group = "verify_large_s" if len(fam) >= LARGE else "verify_small_s"
        report = p.run(group, "verify", cv.verify, fam, ks)
        p.check(report.ok and report.size == size == len(fam), f"{name}: size {len(fam)}, want {size}, ok={report.ok}")
        text = p.run(None, "io", cv.family_to_text, fam)
        back = p.run(None, "io", cv.family_from_text, text)
        p.check(back == fam, f"{name}: text round trip changed the family")

    for k in range(1, inp["max_k"] + 1):
        for w in range(1, 7):
            r = p.run(None, "bounds", cv.best_upper_bound, k, w)
            # Exact for w <= 3; criterion 02 pins two w = 4 upper bounds.
            upper = r.lower if w <= 3 else {(2, 4): 12, (3, 4): 45}.get((k, w), r.upper)
            p.check(
                r.lower == k ** (w - 1) <= r.upper == upper,
                f"best_upper_bound({k},{w}): {r.lower}..{r.upper}",
            )
    for ks in inp["gen"]:
        r = p.run(None, "bounds", cv.generalized_bounds, ks)
        p.check(r.lower == math.prod(ks[1:]) <= r.upper, f"generalized_bounds{ks}: {r.lower}..{r.upper}")

    def lattice(poset):
        lat = p.run("poset_s", "posets", cv.max_antichains, poset)
        lw, picks = p.run("poset_s", "posets", cv.lattice_width_witness, lat)
        return lat, lw, picks

    for k, poset in zip((2, 3, 4), inp["chains"]):
        lat, lw, _ = lattice(poset)
        p.check((lat.size, lw) == (k * k, k), f"lattice of {k}+{k}: {lat.size} members, width {lw}")
    lat, lw, _ = lattice(inp["chains_222"])
    want = EXPECTED["chain lattice 2,2,2"]
    p.check((lat.size, lw) == want, f"lattice of 2+2+2: {lat.size} members, width {lw}")
    lat = p.run("poset_s", "posets", cv.max_antichains, inp["chains_555"])
    p.check(
        p.run("poset_s", "posets", cv.is_lattice, lat) is EXPECTED["lattice of 5+5+5"],
        "maximum antichains of disjoint chains do not form a lattice",
    )
    want = EXPECTED["interval order lattice width"]
    for poset in inp["intervals"]:
        _, lw, _ = lattice(poset)
        p.check(lw == want, f"interval order on {poset.n} elements: lattice width {lw}")
    bound = EXPECTED["reduced poset lattice width at most"]
    for poset in inp["posets"]:
        _, lw, picks = lattice(poset)
        fam = p.run("poset_s", "posets", cv.reduce_to_vectors, poset, 2, picks)
        report = p.run("poset_s", "posets", cv.verify, fam, 2)
        p.check(lw <= bound and report.ok and report.size == lw, f"poset {poset.labels}: lattice width {lw}, reduced ok={report.ok}")


PASSES = {"certify": certify, "widebox": widebox, "sweep": sweep}
