"""Command-line interface: analyze / mu / bounds / verify-cases / growth /
certify over group spec files, plus a catalog dumper.

Exit codes: 0 success; 1 invalid input; 2 cap exhaustion (partial outputs
are written and flagged, never silent); 3 an internal check failed; 141
stdout was closed early (as for a process ended by SIGPIPE). Outputs are
byte-identical across runs on the same inputs: JSON is emitted with sorted
keys and no timestamps.

A run starts only what it uses. This module imports only `errors`,
`specio` and `table` (and so `elements` and numpy); each subcommand imports
its own modules when it runs, so a `growth` job never loads the structure,
mu or certificate code. A plain argv (see `_PlainArgs`) is parsed without
argparse, which loads only for help, errors and the other spellings it
accepts. The CLI pins OpenBLAS to one thread unless
OPENBLAS_NUM_THREADS is already set: solgrow does no BLAS work, and an
OpenBLAS pool would start idle workers that busy-wait before they sleep.
Library imports leave the BLAS setting alone.
"""

from __future__ import annotations

import os

# Before numpy loads: solgrow does no BLAS work, and idle OpenBLAS workers spin.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import CapExceeded, DegenerateWindow, InvariantViolated, ParseError, SolgrowError
from .specio import load_genset, serialize_genset
from .table import DEFAULT_CAP, enumerate_group, is_normal, subgroup_generated

if TYPE_CHECKING:
    import argparse

ENV_MAX_ELEMENTS = "SOLGROW_MAX_ELEMENTS"
EXIT_CLOSED_PIPE = 141


def _max_elements(raw: str, name: str = "--max-elements") -> int:
    """An element cap read from the option or the environment, which must be
    a positive integer. Raises ParseError, which argparse does not catch, so
    both parse paths exit 1 with one error line."""
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParseError(f"{name} must be an integer") from exc
    if cap < 1:
        raise ParseError(f"{name} must be positive")
    return cap


def _default_cap() -> int:
    raw = os.environ.get(ENV_MAX_ELEMENTS)
    return DEFAULT_CAP if raw is None else _max_elements(raw, ENV_MAX_ELEMENTS)


def _emit(obj: dict, path: str | None) -> None:
    _emit_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _emit_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def cmd_analyze(args) -> int:
    from .mu import mu_fast
    from .soluble import analyze_record

    T = enumerate_group(load_genset(args.spec), cap=args.max_elements)
    rec = analyze_record(T)
    if rec["soluble"]:
        cost, _series = mu_fast(T)
        rec["mu"] = cost.as_dict()
    else:
        rec["mu"] = None
    _emit(rec, args.out)
    return 0


def cmd_mu(args) -> int:
    from .mu import mu_bruteforce, mu_fast

    T = enumerate_group(load_genset(args.spec), cap=args.max_elements)
    if args.method == "bruteforce":
        cost, series = mu_bruteforce(T)
    else:
        cost, series = mu_fast(T)
    rec = cost.as_dict()
    rec["method"] = args.method
    rec["series"] = [
        {"order": S.order, "kind": kind}
        for S, kind in zip(series.chain, series.kinds + ["trivial"])
    ]
    _emit(rec, args.out)
    return 0


def cmd_bounds(args) -> int:
    from .bounds import bound_decimal, mu_bound, rho_bound, rho_int_bound, sigma_value

    n = args.n
    if n < 1:
        raise ParseError("--n must be >= 1")
    sig = sigma_value(n)
    rec = {
        "n": n,
        "sigma": sig["exact"],
        "sigma_bound": sig["bound"],
        "rho": rho_bound(n),
        "rho_int": rho_int_bound(n),
        "mu_transitive": mu_bound(n, "transitive"),
        "mu_irreducible": mu_bound(n, "irreducible"),
        "decimal_30": {
            "rho": bound_decimal("rho", n),
            "sigma": bound_decimal("sigma", n),
            "mu_transitive": bound_decimal("mu_transitive", n),
            "mu_irreducible": bound_decimal("mu_irreducible", n),
        },
    }
    _emit(rec, args.out)
    return 0


def cmd_verify_cases(args) -> int:
    from .smallcases import verify_small_cases, verify_transitive_exhaustive

    rec = verify_small_cases(quick=args.quick)
    rec["transitive_theorem"] = verify_transitive_exhaustive(
        degrees=(2, 3, 4) if args.quick else (2, 3, 4, 5, 6)
    )
    _emit(rec, args.out)
    return 0 if rec["pass"] and rec["transitive_theorem"]["pass"] else 1


def cmd_growth(args) -> int:
    from .growth import growth_exponent_fit, growth_table

    if args.radius < 0:
        raise ParseError("--radius must be >= 0")
    gens = load_genset(args.spec)
    tbl = growth_table(gens, args.radius, max_elements=args.max_elements)
    _emit_text(tbl.to_csv(), args.csv)
    if args.fit:
        rec = tbl.as_dict()
        try:
            rec["fit"] = growth_exponent_fit(tbl).as_dict()
        except DegenerateWindow as exc:
            if not tbl.truncated:
                raise
            print(f"no fit: {exc}", file=sys.stderr)  # the cap cut the table short: still written, exit 2
        _emit(rec, args.out)
    elif args.out is not None:
        _emit(tbl.as_dict(), args.out)
    return 2 if tbl.truncated else 0


def cmd_certify(args) -> int:
    from .milnor import certify_growth_lower_bound

    gens = load_genset(args.spec)
    T = enumerate_group(gens, cap=args.max_elements)
    N = None
    if args.normal is not None:
        ngens = load_genset(args.normal)
        try:
            seeds = [T.elements.index(g) for g in ngens.elements]
        except ValueError:
            raise ParseError("normal-subgroup generator is not a group member") from None
        N = subgroup_generated(T, seeds)
        if not is_normal(T, N):
            raise ParseError("the given subgroup is not normal")
    cert = certify_growth_lower_bound(T, N, emit_transcript=args.emit_transcript)
    _emit(cert.as_dict(), args.out)
    return 0


def cmd_catalog(args) -> int:
    from .catalog import catalog

    _emit(serialize_genset(catalog(args.name)), args.out)
    return 0


def _common_args(p) -> None:
    p.add_argument("spec", help="group spec JSON file")
    p.add_argument("-o", "--out", default=None, help="output JSON path (default stdout)")
    p.add_argument(
        "--max-elements",
        type=_max_elements,
        default=_default_cap(),
        help="enumeration cap (env %s overrides the default)" % ENV_MAX_ELEMENTS,
    )


def _mu_args(p) -> None:
    _common_args(p)
    p.add_argument("--method", choices=("fast", "bruteforce"), default="fast")


def _bounds_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--out", default=None)


def _verify_cases_args(p) -> None:
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--quick", action="store_true", help="skip the largest witnesses")


def _growth_args(p) -> None:
    _common_args(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--csv", default=None, help="CSV output path (default stdout)")
    p.add_argument("--fit", action="store_true", help="also emit a JSON fit record")


def _certify_args(p) -> None:
    _common_args(p)
    p.add_argument("--normal", default=None, help="spec file generating a normal subgroup")
    p.add_argument("--emit-transcript", action="store_true")


def _catalog_args(p) -> None:
    p.add_argument("name")
    p.add_argument("-o", "--out", default=None)


# name -> (handler, help line, adds the subcommand's arguments), in help order.
_SUBCOMMANDS = {
    "analyze": (cmd_analyze, "order, derived length, chief factors, ranks", _common_args),
    "mu": (cmd_mu, "modified derived length and witness series", _mu_args),
    "bounds": (cmd_bounds, "bound values for degree n", _bounds_args),
    "verify-cases": (cmd_verify_cases, "run the small-cases suite", _verify_cases_args),
    "growth": (cmd_growth, "Cayley-ball growth table (CSV) and fit", _growth_args),
    "certify": (cmd_certify, "growth-lower-bound certificate", _certify_args),
    "catalog": (cmd_catalog, "dump a named catalog group as a spec file", _catalog_args),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    ap = argparse.ArgumentParser(
        prog="solgrow",
        description="Finite soluble group analysis, growth tables, and "
        "growth-lower-bound certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (func, help_line, add_args) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        add_args(p)
        p.set_defaults(func=func)
    return ap


class _PlainArgs:
    """A subcommand's `add_argument` calls, recorded to parse plain argvs.

    An argv is plain when every option is spelled out in full, at most once,
    with its value as the next word; when no value or positional starts with
    "-"; and when every value converts and every required option is given.
    `parse` returns the namespace argparse would build for a plain argv and
    None for any other, which argparse then parses, with its help and error
    messages. A job's argv is plain, so a job never loads argparse: building
    its parser costs a few milliseconds, mostly importing `locale` for
    gettext, more than some jobs' library work.
    """

    def __init__(self, command: str, func):
        self.defaults = {"command": command, "func": func}
        self.positionals: list[str] = []
        self.options: dict[str, tuple[str, dict]] = {}

    def add_argument(self, *names: str, **kw) -> None:
        if not names[0].startswith("-"):
            self.positionals.append(names[0])
            return
        # argparse's dest: the first long option, else the first option
        dest = next((n for n in names if n.startswith("--")), names[0]).lstrip("-")
        dest = dest.replace("-", "_")
        flag = kw.get("action") == "store_true"
        self.defaults[dest] = kw.get("default", False if flag else None)
        for name in names:
            self.options[name] = (dest, kw)

    def parse(self, words: list[str]) -> SimpleNamespace | None:
        values = dict(self.defaults)
        given: set[str] = set()
        positionals = []
        rest = iter(words)
        for word in rest:
            if not word.startswith("-"):
                positionals.append(word)
                continue
            dest, kw = self.options.get(word, (None, None))
            if dest is None or dest in given:
                return None
            given.add(dest)
            if kw.get("action") == "store_true":
                values[dest] = True
                continue
            value = next(rest, None)
            if value is None or value.startswith("-"):
                return None
            if "type" in kw:
                try:
                    value = kw["type"](value)
                except ValueError:
                    return None
            if value not in kw.get("choices", (value,)):
                return None
            values[dest] = value
        required = {dest for dest, kw in self.options.values() if kw.get("required")}
        if len(positionals) != len(self.positionals) or not required <= given:
            return None
        values.update(zip(self.positionals, positionals))
        return SimpleNamespace(**values)


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The parsed arguments of a plain job argv (see `_PlainArgs`), else None."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    func, _help, add_args = _SUBCOMMANDS[argv[0]]
    plain = _PlainArgs(argv[0], func)
    add_args(plain)
    return plain.parse(argv[1:])


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe raises here rather than at exit
        return code
    except BrokenPipeError:  # the reader closed stdout early, say `| head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so exit flushes nothing
        return EXIT_CLOSED_PIPE


def _run(argv: list[str] | None) -> int:
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _plain_args(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: --help or invalid arguments
        return 1 if exc.code not in (0, None) else 0
    except CapExceeded as exc:
        reached = ""
        if exc.last_completed is not None:
            reached = f" (last complete ball: {exc.last_completed} elements)"
        print(f"cap exceeded: {exc}{reached}", file=sys.stderr)
        return 2
    except InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except SolgrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
