"""Command-line front end tying the library together.

One binary, subcommand style: construct | verify | search | bound |
poset | compress.  All numeric parameters are explicit flags so a
certificate printed by `search` can be reproduced from its own output.

Exit codes: 0 success (constructed, verified, found, bounded); 1 a
verification failed, a search target was refuted, or a containment
query came back negative; 2 usage errors or malformed input files;
3 a resource limit truncated the answer.

`search --box` certifies globally (`exhaustive yes`) whenever the box
contains [0, best]^w, as the default compression box does.  `--ks`
takes positive thresholds in any order in every subcommand.

`--format records` (every subcommand but `construct`, which writes a
family file) emits tab-separated key/value lines with the same numeric
content as the human table.  `search --deterministic` forces a single
worker and drops timing lines so output is byte-identical across runs
and worker counts, unless `--time-limit` cuts the run: where a time
limit stops the search depends on the machine, so the node count and
the witness can then differ between runs.  No other subcommand takes
`--deterministic`: their output has no timing lines and no workers.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from . import constructions as cons
from .core import (
    Family,
    ParseError,
    family_to_text,
    load_family,
    save_family,
    verify,
)
from .posets import (
    contains_k_plus_k,
    lattice_width_witness,
    load_poset,
    max_antichains,
    reduce_to_vectors,
    width,
)
from .search import (
    SearchBox,
    SearchLimits,
    SearchResult,
    compress,
    exists_family,
    max_family_in_box,
    max_family_size,
    ranked_max_family_size,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _emit(pairs, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "records":
        for key, val in pairs:
            stream.write(f"{key}\t{val}\n")
        return
    pad = max((len(k) for k, _ in pairs), default=0)
    for key, val in pairs:
        stream.write(f"{key.ljust(pad)}  {val}\n")


def _thresholds(args):
    ks = getattr(args, "ks", None)
    if ks is not None:
        return ks
    return args.k


def _limits(args) -> SearchLimits:
    return SearchLimits(
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        memory_mb=args.memory_mb,
    )


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "product":
        fam = cons.product_family(args.k, args.w)
    elif kind == "lex":
        seq = args.coord_seq or ()
        fam = cons.lexicographic_family(args.k, args.w, seq)
    elif kind == "cyclic":
        fam = cons.cyclic_family(args.k, args.target_rank)
        if args.with_fixup:
            fix = cons.cyclic_fixup_vector(args.k)
            fam = Family(3, fam.vectors + (fix,))
    elif kind == "lift":
        base = load_family(args.input)
        fam = cons.inductive_lift(base, args.k, args.shift)
    elif kind == "nonranked":
        fam = cons.non_ranked_example()
    elif kind == "weak":
        fam = cons.weak_compression_family(args.k)
    else:
        fam = cons.generalized_product_family(args.ks)
    save_family(fam, args.out or "-")
    return EXIT_OK


def _cmd_verify(args) -> int:
    fam = load_family(args.input)
    report = verify(fam, _thresholds(args), violation_cap=args.violation_cap)
    pairs = [
        ("size", report.size),
        ("antichain", "yes" if report.is_antichain else "no"),
        ("cross_free", "yes" if report.is_cross_free else "no"),
        ("ranked", "yes" if report.is_ranked else "no"),
        ("verified", "yes" if report.ok else "no"),
        ("violations", len(report.violations)),
    ]
    if report.violations_truncated:
        pairs.append(("violations_truncated", "yes"))
    _emit(pairs, args.format)
    for a, b, kind in report.violations:
        sys.stdout.write(f"violation\t{kind}\t{a}\t{b}\n")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _search_pairs(res: SearchResult, deterministic: bool):
    pairs = [("best_size", res.best_size)]
    if res.target is not None:
        pairs.append(("target", res.target))
        pairs.append(("found", "yes" if res.found else "no"))
    pairs.append(("exhaustive", "yes" if res.exhaustive else "no"))
    pairs.append(("truncated", "yes" if res.truncated else "no"))
    pairs.append(("nodes", res.nodes))
    if not deterministic:
        pairs.append(("elapsed", f"{res.elapsed:.2f}s"))
    pairs.append(("box", str(res.box)))
    return pairs


def _certificate_line(res: SearchResult, limits: SearchLimits) -> str:
    lim = (
        f"time={limits.time_limit}s nodes={limits.node_limit} "
        f"memory={limits.memory_mb}MiB"
    )
    status = "exhaustive" if res.exhaustive else "not exhaustive"
    return f"certificate: {status}; box {res.box}; limits {lim}"


def _cmd_search(args) -> int:
    limits = _limits(args)
    ks = _thresholds(args)
    box = SearchBox(args.box) if args.box is not None else None
    workers = 1 if args.deterministic else args.workers
    if args.ranked:
        res = ranked_max_family_size(args.k, args.w, limits, workers=workers)
    elif args.target is not None:
        res = exists_family(ks, args.w, args.target, box, limits, workers=workers)
    elif box is not None:
        res = max_family_in_box(ks, box, limits, workers=workers)
    else:
        res = max_family_size(ks, args.w, limits, workers=workers)

    _emit(_search_pairs(res, args.deterministic), args.format)
    sys.stdout.write(_certificate_line(res, limits) + "\n")
    for note in res.notes:
        sys.stdout.write(f"note: {note}\n")
    if len(res.witness) > 0:
        sys.stdout.write("# witness\n")
        sys.stdout.write(family_to_text(res.witness))
        if args.witness_out:
            save_family(res.witness, args.witness_out)

    if args.target is not None:
        if res.found:
            return EXIT_OK
        # A refutation is definitive for the searched box whenever the
        # run was not resource-truncated; a truncated run decided nothing.
        return EXIT_TRUNCATED if res.truncated else EXIT_NEGATIVE
    # A finished search exits 0 whether or not its box makes the answer
    # global (the certificate line says which); only a limit makes it 3.
    return EXIT_TRUNCATED if res.truncated else EXIT_OK


def _cmd_bound(args) -> int:
    if getattr(args, "ks", None) is not None:
        report = bounds_mod.generalized_bounds(args.ks)
    else:
        report = bounds_mod.best_upper_bound(
            args.k, args.w, trust_exact=not args.no_trust_exact
        )
    pairs = [
        ("w", report.w),
        ("lower", report.lower),
        ("conjectured", report.conjectured),
        ("upper", report.upper),
        ("exact", report.exact if report.exact is not None else "open"),
    ]
    if report.k is not None:
        pairs.insert(0, ("k", report.k))
    if report.ks is not None:
        pairs.insert(0, ("ks", ",".join(str(x) for x in report.ks)))
    pairs.extend((f"candidate:{name}", value) for name, value in report.candidates)
    _emit(pairs, args.format)
    return EXIT_OK


def _cmd_poset(args) -> int:
    poset = load_poset(args.input)
    if args.contains is not None:
        found, witness = contains_k_plus_k(poset, args.contains)
        pairs = [
            ("elements", poset.n),
            ("k", args.contains),
            ("contains_k_plus_k", "yes" if found else "no"),
        ]
        if witness is not None:
            pairs.append(("chain_1", " ".join(witness[0])))
            pairs.append(("chain_2", " ".join(witness[1])))
        _emit(pairs, args.format)
        return EXIT_OK if found else EXIT_NEGATIVE

    w, antichain, chains = width(poset)
    pairs = [
        ("elements", poset.n),
        ("width", w),
        ("witness_antichain", " ".join(antichain)),
    ]
    for i, c in enumerate(chains, start=1):
        pairs.append((f"chain_{i}", " ".join(c)))
    lattice = max_antichains(poset, cap=args.cap)
    pairs.append(("maximum_antichains", lattice.size))
    if lattice.truncated:
        pairs.append(("lattice", "truncated"))
        _emit(pairs, args.format)
        return EXIT_TRUNCATED
    lw, picks = lattice_width_witness(lattice)
    pairs.append(("lattice_width", lw))
    _emit(pairs, args.format)

    if args.reduce is not None:
        fam = reduce_to_vectors(poset, args.reduce, picks)
        sys.stdout.write("# reduced family\n")
        save_family(fam, args.out or "-")
    return EXIT_OK


def _cmd_compress(args) -> int:
    fam = load_family(args.input)
    out = compress(fam, args.k, args.coord)
    c = args.coord - 1
    pairs = [
        ("size", len(out)),
        ("coord", args.coord),
        ("coord_sum_before", sum(v[c] for v in fam)),
        ("coord_sum_after", sum(v[c] for v in out)),
        ("levels", " ".join(str(x) for x in sorted({v[c] for v in out}))),
    ]
    _emit(pairs, args.format)
    save_family(out, args.out or "-")
    return EXIT_OK


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "bound": _cmd_bound,
    "poset": _cmd_poset,
    "compress": _cmd_compress,
}


# ---------------------------------------------------------------------------
# Parser.


def _add_format(sub) -> None:
    sub.add_argument(
        "--format", choices=("table", "records"), default="table",
        help="human table or tab-separated key/value records",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossvec",
        description="Antichains of integer vectors without k-crossing pairs: "
        "construct, verify, bound, search, and reduce posets.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("construct", help="emit a known family in text format")
    p.add_argument(
        "--kind", required=True,
        choices=("product", "lex", "cyclic", "lift", "nonranked", "weak", "genproduct"),
    )
    p.add_argument("--k", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--ks", type=_parse_int_list, metavar="K1,K2,...")
    p.add_argument(
        "--coord-seq", type=_parse_int_list, metavar="C1,C2,...",
        help="lex kind: coordinates receiving the rank boosts (1-based)",
    )
    p.add_argument("--target-rank", type=int, help="cyclic kind: common rank")
    p.add_argument(
        "--with-fixup", action="store_true",
        help="cyclic kind: append the extra vector available when k = 1 mod 3",
    )
    p.add_argument("--input", help="lift kind: base family file")
    p.add_argument("--shift", type=int, help="lift kind: translation step")
    p.add_argument("--out", help="output file (default stdout)")

    p = subs.add_parser("verify", help="check a family file")
    p.add_argument("--input", required=True, help="family file, or - for stdin")
    p.add_argument("--k", type=int)
    p.add_argument("--ks", type=_parse_int_list, metavar="K1,K2,...")
    p.add_argument("--violation-cap", type=int, default=100)
    _add_format(p)

    p = subs.add_parser("search", help="exact search for maximum families")
    p.add_argument("--k", type=int)
    p.add_argument("--ks", type=_parse_int_list, metavar="K1,K2,...")
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--target", type=int, help="decide existence of this size")
    p.add_argument(
        "--box", type=_parse_int_list, metavar="B1,B2,...",
        help="explicit per-coordinate upper limits (lower limits are 0)",
    )
    p.add_argument(
        "--ranked", action="store_true", help="restrict to constant-rank families"
    )
    p.add_argument("--witness-out", help="also write the witness family here")
    p.add_argument(
        "--time-limit", type=float, default=SearchLimits.time_limit, metavar="SECONDS"
    )
    p.add_argument("--node-limit", type=int, default=SearchLimits.node_limit, metavar="N")
    p.add_argument("--memory-mb", type=float, default=SearchLimits.memory_mb, metavar="MB")
    p.add_argument("--workers", type=int, default=1, metavar="N")
    p.add_argument(
        "--deterministic", action="store_true",
        help="single worker, no timing lines; byte-identical output "
        "unless --time-limit cuts the run",
    )
    _add_format(p)

    p = subs.add_parser("bound", help="lower/upper bound table")
    p.add_argument("--k", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--ks", type=_parse_int_list, metavar="K1,K2,...")
    p.add_argument(
        "--no-trust-exact", action="store_true",
        help="recursion from the trivial base only",
    )
    _add_format(p)

    p = subs.add_parser("poset", help="width, maximum-antichain lattice, reduction")
    p.add_argument("--input", required=True, help="poset file, or - for stdin")
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument(
        "--contains", type=int, metavar="K",
        help="only test for two disjoint incomparable K-chains",
    )
    p.add_argument(
        "--reduce", type=int, metavar="K",
        help="reduce a maximum incomparable set of maximum antichains to vectors",
    )
    p.add_argument("--out", help="output file for the reduced family")
    _add_format(p)

    p = subs.add_parser("compress", help="fixpoint-compress one coordinate")
    p.add_argument("--input", required=True, help="family file, or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coord", type=int, required=True, help="1-based coordinate")
    p.add_argument("--out", help="output file (default stdout)")
    _add_format(p)

    return parser


def _validate(args) -> str | None:
    sub = args.subcommand
    ks = getattr(args, "ks", None)
    if sub in ("verify", "search", "bound"):
        if (args.k is not None) == (ks is not None):
            return "exactly one of --k or --ks is required"
    if sub == "construct":
        kind = args.kind
        if kind in ("product", "lex", "cyclic", "weak", "lift") and args.k is None:
            return f"--kind {kind} requires --k"
        if kind in ("product", "lex") and args.w is None:
            return f"--kind {kind} requires --w"
        if kind == "cyclic" and args.target_rank is None:
            return "--kind cyclic requires --target-rank"
        if kind == "lift" and (args.input is None or args.shift is None):
            return "--kind lift requires --input and --shift"
        if kind == "genproduct" and ks is None:
            return "--kind genproduct requires --ks"
    if sub == "bound" and ks is None and args.w is None:
        return "bound requires --w with --k"
    if sub == "search":
        if args.ranked and ks is not None:
            return "--ranked requires a uniform --k"
        if args.ranked and (args.target is not None or args.box is not None):
            return "--ranked takes no --target or --box"
        if args.box is not None and len(args.box) != args.w:
            return f"box width {len(args.box)} does not match --w {args.w}"
        if args.workers < 1:
            return "--workers must be at least 1"
        if args.node_limit < 0:
            return "--node-limit must be nonnegative"
        # "not x >= 0" rather than "x < 0", so that NaN is refused too.
        if not args.time_limit >= 0:
            return "--time-limit must be nonnegative"
        if not args.memory_mb > 0:
            return "--memory-mb must be positive"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        sys.stderr.write(f"error: {problem}\n")
        return EXIT_USAGE
    try:
        return _HANDLERS[args.subcommand](args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
