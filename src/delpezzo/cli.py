"""Command-line front end.

Every command reads JSON (inline or from a file), runs one library
operation and writes a single JSON document to stdout; mutation logs go
to ``--out`` as JSON-lines, and ``replay --log`` reads one back and
replays it.  All numbers cross the interface exactly: integers as JSON
numbers, rationals as reduced "p/q" strings.

Exit codes: 0 success, 1 malformed input, 2 domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import pipeline
from .chern import KClass, default_ample, descend_class, euler_form, slope_mu
from .errors import DomainError, InvalidInputError
from .logs import replay
from .markov import markov_tree, pair_orbit
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


# The most classes or Markov triples one answer may list.  A larger request
# is refused (exit 2) before it is computed, or at markov's first extra triple.
_MAX_CLASSES = 1000


def _check_class_budget(what: str, count: int) -> None:
    if count > _MAX_CLASSES:
        raise DomainError(
            f"{what} asks for {count} classes; an answer lists at most {_MAX_CLASSES}"
        )


class _ArgumentError(InvalidInputError):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code control in run()
        raise _ArgumentError(message, self)


_JSON_INT = re.compile(r"-?(0|[1-9][0-9]*)")


def _json_int(text: str) -> int:
    """An integer flag value, written as JSON writes one: -?(0|[1-9][0-9]*)
    in ASCII digits, within the int-from-string digit limit."""
    if not _JSON_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a JSON integer: {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # past the int-from-string digit limit
        raise argparse.ArgumentTypeError(
            f"integer of {len(text)} digits is too long"
        ) from exc


def _frac(x: int | Fraction) -> str:
    """A slope as "p/q" in lowest terms; an integer shows as "p/1"."""
    return f"{x.numerator}/{x.denominator}"


def _load_json(value: str):
    """Inline JSON, or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith(("{", "[")) and os.path.exists(value):
        try:  # a directory, an unreadable file, or bytes that are not UTF-8
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read JSON file {value!r}: {exc}") from exc
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
    try:
        text = json.dumps(doc)
    except ValueError as exc:  # an integer past the int-to-string digit limit
        raise DomainError(f"answer too large to write: {exc}") from exc
    sys.stdout.write(text + "\n")


def _indexed_classes(classes: dict[int, KClass]) -> list[dict]:
    return [{"index": i, "class": classes[i].to_json()} for i in sorted(classes)]


def _write_log(log: MutationLog, out: str | None) -> None:
    if out:
        text = log.to_jsonl()
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write the log to {out!r}: {exc}") from exc


def _cmd_chi(args) -> None:
    S = _surface(args)
    _emit({"chi": euler_form(S, _kclass(args.e), _kclass(args.f))})


def _cmd_slope(args) -> None:
    S = _surface(args)
    E = _kclass(args.e)
    doc = {"mu_h": _frac(slope_mu(S, E))}
    if E.r > 0:
        sv = vector_slope(S, E)
        doc["mu_a"] = _frac(sv.components()[1])
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
    evidence = {
        "chi_ef": t.chi,
        "chi_fe": euler_form(S, F, E),
        "mu_e": _frac(slope_mu(S, E)),
        "mu_f": _frac(slope_mu(S, F)),
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
    out = mutate_collection(c, args.pos, args.dir)
    _emit(out.to_json())


def _cmd_braid(args) -> None:
    c = _collection(args)
    word = BraidWord.parse(args.word)
    result, log = apply_braid(c, word)
    _write_log(log, args.out)
    _emit({"collection": result.to_json(), "steps": len(log)})


def _cmd_helix(args) -> None:
    c = _collection(args)
    _check_class_budget(f"helix range [{args.lo}, {args.hi}]", args.hi - args.lo + 1)
    _emit({"classes": _indexed_classes(helix_extend(c, args.lo, args.hi))})


def _cmd_gram(args) -> None:
    c = _collection(args)
    _check_class_budget(f"gram of {len(c)} members", len(c))
    _emit({"gram": gram_matrix(c)})


def _cmd_check(args) -> None:
    ok, violation = is_numerically_exceptional(_collection(args))
    doc: dict = {"exceptional": ok}
    if not ok:
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
    if args.braid is not None:
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
    triples = []
    for t in markov_tree(args.limit):
        if len(triples) == _MAX_CLASSES:
            raise DomainError(
                f"markov limit {args.limit} lists more than {_MAX_CLASSES} triples; "
                f"an answer lists at most {_MAX_CLASSES}"
            )
        triples.append(t.as_tuple())
    triples.sort()
    # Whether each maximum names one triple, checked up to the limit only.
    unique_max = len({t[2] for t in triples}) == len(triples)
    _emit(
        {
            "triples": [list(t) for t in triples],
            "unique_max_verified_up_to": args.limit if unique_max else None,
        }
    )


def _cmd_orbit(args) -> None:
    S = _surface(args)
    E, F, n = _kclass(args.e), _kclass(args.f), args.limit
    _check_class_budget(f"orbit limit {n}", 2 * n + 2)
    orbit = pair_orbit(S, E, F, n)
    _emit({"h": orbit.h, "x": list(orbit.x), "classes": _indexed_classes(orbit.classes)})


def _parse_mults(text: str | None, n: int) -> list[int] | None:
    if text is None:
        return None
    try:
        mults = [_json_int(x) for x in text.split(",")]
    except argparse.ArgumentTypeError as exc:
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
    alpha = next(s.params["alpha"] for s in log.steps if s.kind == "peel")
    _emit(
        {
            "descended": descended.to_json(),
            "alpha": alpha,
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


def _cmd_replay(args) -> None:
    try:  # a missing path, a directory, or bytes that are not UTF-8
        with open(args.log, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read the log {args.log!r}: {exc}") from exc
    log = MutationLog.from_jsonl(text)
    _emit({"replayed": replay(log), "steps": len(log)})


_REQUIRED = {"required": True}
_OPTIONAL: dict = {}

# Each command: its function and its flags, --flag-name for flag_name.
_COMMANDS = {
    "chi": (_cmd_chi, {"surface": _REQUIRED, "e": _REQUIRED, "f": _REQUIRED}),
    "slope": (_cmd_slope, {"surface": _REQUIRED, "e": _REQUIRED}),
    "classify-pair": (
        _cmd_classify_pair,
        {"surface": _REQUIRED, "e": _REQUIRED, "f": _REQUIRED},
    ),
    "roots": (_cmd_roots, {"surface": _REQUIRED}),
    "mutate": (
        _cmd_mutate,
        {
            "collection": _REQUIRED,
            "pos": {"required": True, "type": _json_int},
            "dir": {"required": True, "type": Direction},
        },
    ),
    "braid": (_cmd_braid, {"collection": _REQUIRED, "word": _REQUIRED, "out": _OPTIONAL}),
    "helix": (
        _cmd_helix,
        {
            "collection": _REQUIRED,
            "lo": {"type": _json_int, "default": -3},
            "hi": {"type": _json_int, "default": 6},
        },
    ),
    "gram": (_cmd_gram, {"collection": _REQUIRED}),
    "check": (_cmd_check, {"collection": _REQUIRED}),
    "hn": (_cmd_hn, {"graded": _REQUIRED, "ample": _OPTIONAL}),
    "markov": (_cmd_markov, {"limit": {"type": _json_int}, "braid": _OPTIONAL}),
    "orbit": (
        _cmd_orbit,
        {
            "surface": _REQUIRED,
            "e": _REQUIRED,
            "f": _REQUIRED,
            "limit": {"type": _json_int, "default": 5},
        },
    ),
    "normalize": (
        _cmd_normalize,
        {"collection": _REQUIRED, "mults": _OPTIONAL, "out": _OPTIONAL},
    ),
    "peel": (
        _cmd_peel,
        {
            "collection": _REQUIRED,
            "mults": _OPTIONAL,
            "e_index": {"type": _json_int},
            "out": _OPTIONAL,
        },
    ),
    "descend": (_cmd_descend, {"surface": _REQUIRED, "e": _REQUIRED}),
    "replay": (_cmd_replay, {"log": _REQUIRED}),
}


def _add_command(parser: _Parser, name: str) -> None:
    fn, flags = _COMMANDS[name]
    for flag, kwargs in flags.items():
        parser.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
    parser.set_defaults(fn=fn)


def _build_parser(argv: list[str]) -> tuple[_Parser, list[str]]:
    """The parser for argv and the arguments it reads.  When argv[0] names
    a command, that command's parser alone, which a cold call builds in a
    small part of the time all of them take; otherwise the top-level
    parser with every command, which reports an unknown command, a stray
    flag or --help."""
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"delpezzo {argv[0]}")
        _add_command(parser, argv[0])
        return parser, argv[1:]
    parser = _Parser(
        prog="delpezzo",
        description="Exact K-theory of exceptional collections on blow-ups of the plane.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        _add_command(sub.add_parser(name), name)
    return parser, argv


def run(argv: list[str]) -> int:
    """Dispatch one command; returns the process exit code."""
    parser, rest = _build_parser(argv)
    try:
        args = parser.parse_args(rest)
        if not getattr(args, "fn", None):
            parser.print_usage(sys.stderr)
            return 1
        args.fn(args)
        return 0
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exc.parser.print_usage(sys.stderr)
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
