"""Command-line front end.

Every command reads JSON (inline or from a file), runs one library
operation and writes a single JSON document to stdout; mutation logs go
to ``--out`` as JSON-lines.  All numbers cross the interface exactly:
integers as JSON numbers, rationals as reduced "p/q" strings.

Exit codes: 0 success, 1 malformed input, 2 domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import pipeline
from .chern import KClass, default_ample, descend_class, euler_form, slope_mu
from .errors import DomainError, InvalidInputError
from .markov import markov_max_uniqueness, markov_tree, pair_orbit
from .mutation import (
    BraidWord,
    Collection,
    Direction,
    MutationLog,
    apply_braid,
    basic_collection,
    gram_matrix,
    helix_extend,
    is_numerically_exceptional,
    mutate_collection,
)
from .pairs import PairKind, classify_pair
from .picard import (
    DivisorClass,
    Surface,
    blow_down_surface,
    effective_root_decomposition,
    enumerate_roots,
)
from .stability import GradedObject, hn_coarsen, vector_slope


class _ArgumentError(InvalidInputError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code control in run()
        raise _ArgumentError(message)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _load_json(value: str):
    """Inline JSON, or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith(("{", "[")) and os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise InvalidInputError(f"cannot parse JSON from {value!r}: {exc}") from exc


def _surface(args) -> Surface:
    return Surface.from_json(_load_json(args.surface))


def _collection(args) -> Collection:
    return Collection.from_json(_load_json(args.collection))


def _kclass(value: str) -> KClass:
    return KClass.from_json(_load_json(value))


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _write_log(log: MutationLog, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(log.to_jsonl())


def _cmd_chi(args) -> None:
    S = _surface(args)
    _emit({"chi": euler_form(S, _kclass(args.e), _kclass(args.f))})


def _cmd_slope(args) -> None:
    S = _surface(args)
    E = _kclass(args.e)
    H = S.anticanonical_class()
    doc = {"mu_h": _frac(slope_mu(S, E, H))}
    if E.r > 0:
        sv = vector_slope(S, E)
        doc["mu_a"] = _frac(slope_mu(S, E, default_ample(S)))
        doc["vector"] = {
            "rank": sv.rank,
            "numerators": [_frac(x) for x in sv.numerators],
        }
    _emit(doc)


def _cmd_classify_pair(args) -> None:
    S = _surface(args)
    E, F = _kclass(args.e), _kclass(args.f)
    t = classify_pair(S, E, F)
    doc = {"kind": t.kind.value, "dims": list(t.dims)}
    H = S.anticanonical_class()
    evidence = {
        "chi_ef": euler_form(S, E, F),
        "chi_fe": euler_form(S, F, E),
        "mu_e": _frac(slope_mu(S, E, H)),
        "mu_f": _frac(slope_mu(S, F, H)),
    }
    if t.kind in (PairKind.ZERO, PairKind.SINGULAR):
        C = F.c1 - E.c1
        doc["C"] = C.to_json()
        decomposition = effective_root_decomposition(S, C)
        if decomposition is not None:
            evidence["root_decomposition"] = list(decomposition)
    doc["evidence"] = evidence
    _emit(doc)


def _cmd_roots(args) -> None:
    roots = enumerate_roots(_surface(args))
    _emit({"count": len(roots), "roots": [r.to_json() for r in roots]})


def _cmd_mutate(args) -> None:
    c = _collection(args)
    out = mutate_collection(c, args.pos, Direction.from_str(args.dir))
    _emit(out.to_json())


def _cmd_braid(args) -> None:
    c = _collection(args)
    word = BraidWord.parse(args.word)
    result, log = apply_braid(c, word)
    _write_log(log, args.out)
    _emit({"collection": result.to_json(), "steps": len(log)})


def _cmd_helix(args) -> None:
    c = _collection(args)
    classes = helix_extend(c, args.lo, args.hi)
    _emit(
        {
            "classes": [
                {"index": i, "class": classes[i].to_json()}
                for i in sorted(classes)
            ]
        }
    )


def _cmd_gram(args) -> None:
    _emit({"gram": gram_matrix(_collection(args))})


def _cmd_check(args) -> None:
    ok, violation = is_numerically_exceptional(_collection(args))
    doc: dict = {"exceptional": ok}
    if not ok:
        assert violation is not None
        doc["violation"] = violation.to_json()
    _emit(doc)


def _cmd_hn(args) -> None:
    g = GradedObject.from_json(_load_json(args.graded))
    d = g.quotients[0][0].d
    A = (
        DivisorClass.from_json(_load_json(args.ample))
        if args.ample
        else default_ample(Surface(d))
    )
    _emit(hn_coarsen(g, A).to_json())


def _cmd_markov(args) -> None:
    if args.braid:
        foundation = basic_collection(Surface(0))
        result, _ = apply_braid(foundation, BraidWord.parse(args.braid))
        ranks = [m.r for m in result.members]
        x, y, z = ranks
        ok = x * x + y * y + z * z == 3 * x * y * z
        doc = {"ranks": ranks, "is_markov_triple": ok}
        if ok:
            doc["triple"] = sorted(abs(v) for v in ranks)
        _emit(doc)
        return
    if args.limit is None:
        raise InvalidInputError("markov needs --limit or --braid")
    triples = sorted(t.as_tuple() for t in markov_tree(args.limit))
    _emit(
        {
            "triples": [list(t) for t in triples],
            "unique_max_verified_up_to": args.limit
            if markov_max_uniqueness(args.limit)
            else None,
        }
    )


def _cmd_orbit(args) -> None:
    S = _surface(args)
    orbit = pair_orbit(S, _kclass(args.e), _kclass(args.f), args.limit or 5)
    _emit(
        {
            "h": orbit.h,
            "x": list(orbit.x),
            "classes": [
                {"index": i, "class": orbit.classes[i].to_json()}
                for i in sorted(orbit.classes)
            ],
        }
    )


def _parse_mults(text: str | None, n: int) -> list[int] | None:
    if text is None:
        return None
    try:
        mults = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"bad multiplicities {text!r}") from exc
    if len(mults) != n:
        raise InvalidInputError(f"expected {n} multiplicities, got {len(mults)}")
    return mults


def _cmd_normalize(args) -> None:
    c = _collection(args)
    descended, log = pipeline.normalize_and_descend(
        c, _parse_mults(args.mults, len(c.members))
    )
    _write_log(log, args.out)
    alphas = [
        int(s.params["alpha"]) for s in log.steps if s.kind == "peel"
    ]
    _emit(
        {
            "descended": descended.to_json(),
            "alpha": alphas[0] if alphas else 0,
            "steps": len(log),
        }
    )


def _cmd_peel(args) -> None:
    c = _collection(args)
    mults = _parse_mults(args.mults, len(c.members)) or [1] * len(c.members)
    e_index = args.e_index if args.e_index is not None else c.surface.d
    G, alpha, log = pipeline.peel_curve(c, mults, e_index)
    _write_log(log, args.out)
    _emit({"class": G.to_json(), "alpha": alpha})


def _cmd_descend(args) -> None:
    S = _surface(args)
    E = _kclass(args.e)
    descended = descend_class(S, E)
    _emit(
        {
            "class": descended.to_json(),
            "surface": blow_down_surface(S).to_json(),
        }
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="delpezzo",
        description="Exact K-theory of exceptional collections on blow-ups of the plane.",
    )
    sub = parser.add_subparsers(dest="command")

    def cmd(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.set_defaults(fn=fn)
        return p

    cmd(
        "chi",
        _cmd_chi,
        surface={"required": True},
        e={"required": True},
        f={"required": True},
    )
    cmd("slope", _cmd_slope, surface={"required": True}, e={"required": True})
    cmd(
        "classify-pair",
        _cmd_classify_pair,
        surface={"required": True},
        e={"required": True},
        f={"required": True},
    )
    cmd("roots", _cmd_roots, surface={"required": True})
    cmd(
        "mutate",
        _cmd_mutate,
        collection={"required": True},
        pos={"required": True, "type": int},
        dir={"required": True},
    )
    cmd(
        "braid",
        _cmd_braid,
        collection={"required": True},
        word={"required": True},
        out={"default": None},
    )
    cmd(
        "helix",
        _cmd_helix,
        collection={"required": True},
        lo={"type": int, "default": -3},
        hi={"type": int, "default": 6},
    )
    cmd("gram", _cmd_gram, collection={"required": True})
    cmd("check", _cmd_check, collection={"required": True})
    cmd(
        "hn",
        _cmd_hn,
        graded={"required": True},
        ample={"default": None},
    )
    cmd(
        "markov",
        _cmd_markov,
        limit={"type": int, "default": None},
        braid={"default": None},
    )
    cmd(
        "orbit",
        _cmd_orbit,
        surface={"required": True},
        e={"required": True},
        f={"required": True},
        limit={"type": int, "default": 5},
    )
    cmd(
        "normalize",
        _cmd_normalize,
        collection={"required": True},
        mults={"default": None},
        out={"default": None},
    )
    cmd(
        "peel",
        _cmd_peel,
        collection={"required": True},
        mults={"default": None},
        e_index={"type": int, "default": None},
        out={"default": None},
    )
    cmd(
        "descend",
        _cmd_descend,
        surface={"required": True},
        e={"required": True},
    )
    return parser


def run(argv: list[str]) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return 1
        args.fn(args)
        return 0
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
