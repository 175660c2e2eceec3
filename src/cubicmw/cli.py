"""Command-line entry point for reproducible experiments.

Subcommands: enumerate, compose, decompose, verify-relations, split-demo,
plane-closure.  Exit codes: 0 success, 1 domain error (single machine-
parsable line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .decompose import StrongRelations, build_report, build_table, cap_profile
from .enumeration import enumerate_points, load_registry, save_registry
from .errors import CubicError, ParseError
from .geometry import Field, RATIONALS, normalize
from .relations import (
    group_law_suite,
    involution_suite,
    sextuple_suite,
    tangent_consistency_suite,
)
from .splitplane import BlowupModel, plane_closure, verify_claim1
from .surface import CubicSurface, height, secant_compose, surface_point


def _argument_type(parse):
    """parse, its ValueError re-raised as ArgumentTypeError, whose text argparse prints in full."""

    @functools.wraps(parse)
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


@_argument_type
def _coeffs(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def _base(text: str) -> list[tuple[int, ...]] | None:
    return None if text == "default" else [_coeffs(part) for part in text.split(";")]


@_argument_type
def _field(text: str) -> Field:
    if text == "q":
        return RATIONALS
    if text.startswith("fp:"):
        return Field(int(text[3:]))
    raise argparse.ArgumentTypeError(f"field must be 'q' or 'fp:<prime>', got {text!r}")


@_argument_type
def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def _threads(args) -> int:
    """--threads, else CUBIC_MW_THREADS, else the CPU count."""
    if args.threads is not None:
        return args.threads
    env = os.environ.get("CUBIC_MW_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError:
        raise ParseError(f"CUBIC_MW_THREADS must be a positive integer, got {env!r}") from None


def _add_threads(sub):
    sub.add_argument("--threads", type=_positive_int, default=None,
                     help="join threads (default: CUBIC_MW_THREADS or the CPU count)")


def cmd_enumerate(args) -> int:
    _check_writable(args.out)
    reg = enumerate_points(args.coeffs, args.height, threads=_threads(args))
    # header stays independent of the thread count so reruns are byte-identical
    save_registry(reg, args.out, extra_header=[f"# tool: cubicmw {__version__}"])
    print(f"wrote {len(reg)} points to {args.out}")
    return 0


def cmd_compose(args) -> int:
    surface = CubicSurface.diagonal(args.coeffs)
    x = surface_point(surface, normalize(args.x))
    y = surface_point(surface, normalize(args.y))
    z = secant_compose(surface, x, y)
    print(" ".join(str(c) for c in z.coords))
    return 0


def json_pieces(obj, nl="\n"):
    """Yield the text of json.dumps(obj, indent=1) in pieces, one per dict item.

    `nl` is a newline plus the indent of obj's own line.  Dict keys must be
    str.  Keys and strings go through json's C escaper, a list of int lists
    of one length through one %d template; any other scalar (bool, None,
    float) is left to json.dumps.  A `StrongRelations` value is written as
    its dict {str(x): [[y, z], ...]}, one piece per rank (`_strong_pieces`).
    """
    if not isinstance(obj, dict) or not obj:
        yield _json_text(obj, nl)
        return
    inner = nl + " "
    sep = "{" + inner
    for key, value in obj.items():
        head = sep + encode_basestring_ascii(key) + ": "
        sep = "," + inner
        if isinstance(value, StrongRelations):
            yield head
            yield from _strong_pieces(value, inner)
        elif isinstance(value, dict) and value:
            yield head
            yield from json_pieces(value, inner)
        else:
            yield head + _json_text(value, inner)
    yield nl + "}"


def _strong_pieces(strong: StrongRelations, nl: str):
    """json_pieces of strong as {str(x): [[y, z], ...]}, from its arrays one rank at a time.

    A rank's key and pairs fill one %d template of its pair count, repeated
    from one pair's template.  Templates are not kept: on the (1,1,1,1)
    H=24 report those of its 113 pair counts would hold about 190 KB.
    """
    if not strong:
        yield "{}"
        return
    inner, mid, deep = nl + " ", nl + "  ", nl + "   "
    pair = "[" + deep + "%d," + deep + "%d" + mid + "]"
    head, more, tail = '"%d": [' + mid, pair + "," + mid, pair + inner + "]"
    sep = "{" + inner
    for x, flat in strong.flat_pairs():
        yield sep + (head + more * (len(flat) // 2 - 1) + tail) % (x, *flat)
        sep = "," + inner
    yield nl + "}"


def _json_text(obj, nl: str) -> str:
    """json.dumps(obj, indent=1) for a value on a line indented as `nl` says."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, dict):
        return "".join(json_pieces(obj, nl)) if obj else "{}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    inner = nl + " "
    flat = _int_rows(obj)
    if flat:
        # one %d template per row, all filled in by one format
        deeper = inner + " "
        row = "[" + deeper + ("," + deeper).join(["%d"] * len(obj[0])) + inner + "]"
        body = ("," + inner).join([row] * len(obj)) % flat
    else:
        body = ("," + inner).join([_json_text(v, inner) for v in obj])
    return "[" + inner + body + nl + "]"


def _int_rows(obj) -> tuple[int, ...]:
    """obj's entries row by row if obj holds non-empty int lists of one length, else ()."""
    if {*map(type, obj)} != {list} or len({*map(len, obj)}) != 1:
        return ()
    flat = tuple(chain.from_iterable(obj))
    return flat if {*map(type, flat)} == {int} else ()


def _check_writable(*paths) -> None:
    """Fail before any work if an output path is a directory or its directory is missing."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(errno.ENOENT, "no such directory", folder)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "is a directory", path)


def cmd_decompose(args) -> int:
    _check_writable(args.report, args.profile)
    reg = load_registry(args.points, args.coeffs)
    table = build_table(reg)
    report = build_report(table)
    payload = report.json_fields()
    payload["config"] = {
        "coeffs": list(args.coeffs),
        "points_file": args.points,
        "version": __version__,
    }
    with open(args.report, "w") as fh:
        fh.writelines(json_pieces(payload))
        fh.write("\n")
    if args.profile is not None:
        _write_profile(table, report.strong, args.profile)
    print(
        f"points={payload['points']} strong={payload['strong_count']} "
        f"weak_only={payload['weak_only_count']} generators={payload['generator_count']}"
    )
    return 0


def _write_profile(table, strong, path: str) -> None:
    """cap(x) of each rank x that is not strongly decomposable, as JSON (null: unreached)."""
    reg = table.registry
    caps = [{"rank": x, "coords": list(reg.point(x).coords), "height": height(reg.point(x)),
             "cap": cap} for x, cap in cap_profile(table, strong)]
    with open(path, "w") as fh:
        fh.writelines(json_pieces({"points": len(reg), "caps": caps}))
        fh.write("\n")


def cmd_verify_relations(args) -> int:
    reg = enumerate_points(args.coeffs, args.height, threads=_threads(args))
    results = [
        involution_suite(reg, args.trials, args.seed),
        sextuple_suite(reg, args.trials, args.seed),
        tangent_consistency_suite(reg, args.trials, args.seed),
    ]
    results += group_law_suite(min(args.trials, 100), args.seed)
    ok = True
    for r in results:
        print(r)
        ok = ok and r.ok
    return 0 if ok else 1


def cmd_split_demo(args) -> int:
    model = BlowupModel.build(args.base, args.field)
    terms = " + ".join(
        f"{c}*x^{''.join(map(str, e))}" for e, c in sorted(model.surface.coeffs.items())
    )
    print(f"surface: {terms} = 0")
    rng = random.Random(args.seed)
    good = degenerate = 0
    p = args.field.p
    while good < args.samples:
        if p is None:
            raws = [(1, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        else:
            raws = [(1, rng.randrange(p), rng.randrange(p)) for _ in range(4)]
        pts = [normalize(r, args.field) for r in raws]
        if len(set(pts)) < 4 or any(model.is_base(q) for q in pts):
            degenerate += 1
            continue
        try:
            agrees = verify_claim1(model, *pts)
        except CubicError:
            degenerate += 1
            continue
        if not agrees:
            print(f"claim-1 FAILURE at {pts}", file=sys.stderr)
            return 1
        good += 1
    print(f"claim-1 suite: {good} agreed, {degenerate} degenerate samples skipped")
    return 0


def cmd_plane_closure(args) -> int:
    seeds = [normalize(v, args.field) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
    if args.extra is not None:
        seeds.append(normalize(args.extra, args.field))
    pts, gens = plane_closure(
        args.field, seeds, height_cap=args.cap, max_generations=args.max_generations
    )
    print(f"closure size {len(pts)} after {gens} generations")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cubicmw",
        description="Secant/tangent composition experiments on cubic surfaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="height-bounded point search")
    p.add_argument("--coeffs", type=_coeffs, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("compose", help="compose two surface points")
    p.add_argument("--coeffs", type=_coeffs, required=True)
    p.add_argument("--x", type=_coeffs, required=True)
    p.add_argument("--y", type=_coeffs, required=True)
    p.set_defaults(func=cmd_compose)

    p = subs.add_parser("decompose", help="composition table and decomposition report")
    p.add_argument("--points", required=True)
    p.add_argument("--coeffs", type=_coeffs, required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--profile", default=None,
                   help="also write cap(x), the least height cap reaching x, per non-strong rank")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("verify-relations", help="randomized identity suites")
    p.add_argument("--coeffs", type=_coeffs, default=(1, 2, 3, 4))
    p.add_argument("--height", type=int, default=200)
    p.add_argument("--trials", type=_positive_int, default=2000)
    _add_threads(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the random draws")
    p.set_defaults(func=cmd_verify_relations)

    p = subs.add_parser("split-demo", help="blow-up model and claim-1 suite")
    p.add_argument("--field", type=_field, default=_field("fp:101"))
    p.add_argument("--base", type=_base, default="default",
                   help="'default' or six ;-separated triples")
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed for the random draws")
    p.set_defaults(func=cmd_split_demo)

    p = subs.add_parser("plane-closure", help="projective-plane closure of seeds")
    p.add_argument("--field", type=_field, required=True)
    p.add_argument("--cap", type=int, default=None, help="height cap, required over Q only")
    p.add_argument("--extra", type=_coeffs, default=None, help="extra seed as comma triple")
    p.add_argument("--max-generations", type=int, default=None)
    p.set_defaults(func=cmd_plane_closure)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CubicError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
