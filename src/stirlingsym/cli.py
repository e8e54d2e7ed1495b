"""Command-line interface.

Verbs: expand, enumerate, eulerian, verify, invert, wp, mobius, tables.
Exit status: 0 on success (and on passing verifications), 1 when a
verification fails, 2 on usage errors and refused sizes, 3 when the work ran
out of memory or recursion depth, 130 on Ctrl-C, and 141 (128 + SIGPIPE)
when the reader closes stdout early, as ``enumerate ... | head`` does.
Errors are one line on stderr, never a traceback.  All output is
deterministic.

Comma-list values may start with a minus sign in either form:
``--coeffs -1,2,3`` reads like ``--coeffs=-1,2,3``.

Each verb imports the layers it runs when it runs, so building the parser
loads no layer and ``eulerian`` or ``expand --basis e`` loads only
``stirling``, ``symfunc`` and ``partitions``.  Only the standard-library
modules that every verb needs, ``argparse``, ``os``, ``re`` and ``sys``, are
imported here; with the layers' ``collections.abc``, ``fractions``,
``functools``, ``itertools``, ``math`` and ``threading`` they are all that a
tally verb loads.  ``json`` is imported only when a verb prints JSON.
"""

from __future__ import annotations

import argparse
import os
import re
import sys


#: Exit status when stdout's reader goes away: 128 + SIGPIPE, as a shell
#: reports a process that the signal ended.
EXIT_BROKEN_PIPE = 141

#: Options whose value is a comma list that may start with a negative number.
_LIST_OPTIONS = ("--coeffs", "--mu", "--lambda")

#: The size options of ``verify``.
_SIZE_OPTIONS = ("order", "n", "r")


def _attach_list_values(argv: list[str]) -> list[str]:
    """Rewrite ``--coeffs -1,2`` as ``--coeffs=-1,2``.

    argparse reads a separate value such as ``-1,2`` as an unknown flag; only
    the attached ``=`` form reaches the option.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if (argv[i] in _LIST_OPTIONS and i + 1 < len(argv)
                and re.match(r"-[\d.]", argv[i + 1])):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _print_json(obj) -> None:
    """Print ``obj`` as one JSON line; only a verb that prints JSON loads json."""
    import json

    print(json.dumps(obj))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingsym",
        description="exact combinatorics of nested multiset permutations "
        "and their symmetric functions",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("expand", help="type-sum symmetric function in a basis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--basis", choices=("m", "e", "h", "p", "s"), default="e")
    p.add_argument("--kind", choices=("AA", "DA", "TN", "IN"), default="AA")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p = sub.add_parser("enumerate", help="list permutations or trees")
    p.add_argument("--what", choices=("stirling", "trees"), default="stirling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eulerian", help="descent generating polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run a named identity check (or all)")
    p.add_argument("--identity", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("invert", help="invert an EGF through the h-expansions")
    p.add_argument("--kind", choices=("mult", "comp"), required=True)
    p.add_argument(
        "--coeffs",
        required=True,
        help="comma-separated semantic coefficients f_0,f_1,... of y^n/n!",
    )
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("wp", help="closed-formula volume of a partition")
    p.add_argument("--lambda", dest="lam", required=True, help="e.g. 2,1")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("mobius", help="Mobius invariant of a weighted interval")
    p.add_argument("--poset", choices=("pi", "b"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True, help="weak composition, e.g. 2,0,1")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("tables", help="dump the expansion tables (golden format)")
    p.add_argument("--out", default=None, help="directory for one file per family")
    p.add_argument("--nmax", type=int, default=6)

    return parser


def _cmd_expand(args) -> int:
    from .stirling import stirling_symfunc
    from .symfunc import DEFAULT_DEGREE_CAP, _check_cap, convert, render_symfunc

    if args.basis != "e":
        # F(n, r) has degree n, and only basis e converts nothing
        _check_cap(args.n, DEFAULT_DEGREE_CAP)
    f = stirling_symfunc(args.n, args.r, args.kind, args.j)
    g = convert(f, args.basis)
    if args.format == "json":
        _print_json(g.to_json())
    elif args.format == "latex":
        print(render_symfunc(g, latex=True))
    else:
        print(render_symfunc(g))
    return 0


def _cmd_enumerate(args) -> int:
    if args.what == "stirling":
        from .stirling import enumerate_stirling

        for sp in enumerate_stirling(args.n, args.r):
            if args.format == "json":
                _print_json(sp.to_json())
            else:
                print(sp)
    else:
        from .trees import enumerate_normalized, render_tree, tree_to_json

        for t in enumerate_normalized(args.n):
            if args.format == "json":
                _print_json(tree_to_json(t))
            else:
                print(render_tree(t))
                print()
    return 0


def _cmd_eulerian(args) -> int:
    # no coefficient exceeds |Q(n, r)|: refuse, before the recurrence, a
    # count with more digits than Python converts to text (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.r >= 1:
        count, bound = 1, 10 ** limit
        for k in range(1, args.n + 1):
            count *= (k - 1) * args.r + 1
            if count >= bound:
                raise ValueError(
                    f"|Q({args.n},{args.r})| has more than {limit} digits, the "
                    "limit of integer string conversion (sys.get_int_max_str_digits())")
    from .stirling import eulerian_polynomial

    poly = eulerian_polynomial(args.n, args.r)
    if args.format == "json":
        _print_json(poly.to_json())
    else:
        print(poly)
    return 0


def _call_check(name, fn, args):
    """Run one check with the size options it takes.

    ``--order`` stands in for ``n`` when the check takes ``n`` and no
    ``--n`` is given.  Any other option the check does not take is refused,
    and so is a negative size, before the check runs.
    """
    import inspect

    accepted = inspect.signature(fn).parameters
    kwargs = {}
    for option in _SIZE_OPTIONS:
        value = getattr(args, option)
        if value is None:
            continue
        if value < 0:
            raise ValueError(f"--{option} must be nonnegative, got {value}")
        if option in accepted:
            kwargs[option] = value
        elif option == "order" and "n" in accepted and args.n is None:
            kwargs["n"] = value
        else:
            taken = [f"--{p}" for p in _SIZE_OPTIONS if p in accepted]
            if "n" in accepted and "order" not in accepted:
                taken[taken.index("--n")] = "--n (or --order in its place)"
            raise ValueError(f"identity {name!r} takes no --{option}; its size "
                             f"options: {', '.join(taken) or 'none'}")
    return fn(**kwargs)


def _cmd_verify(args) -> int:
    from .identities import registry

    checks = registry()
    if args.identity == "all":
        given = [f"--{option}" for option in _SIZE_OPTIONS
                 if getattr(args, option) is not None]
        if given:
            raise ValueError(f"--identity all takes no {given[0]}; the battery "
                             "runs every check at its default size")
        names = list(checks)
    elif args.identity in checks:
        names = [args.identity]
    else:
        known = ", ".join(checks)
        raise ValueError(f"unknown identity {args.identity!r}; known: {known}, all")
    reports = [_call_check(name, checks[name], args) for name in names]
    if args.format == "json":
        payload = [r.to_json() for r in reports]
        _print_json(payload[0] if len(payload) == 1 else payload)
    else:
        for r in reports:
            print(r.render())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_invert(args) -> int:
    from .identities import invert_egf_numeric
    from .partitions import parse_rational, rational_str

    coeffs = [parse_rational(x) for x in args.coeffs.split(",")]
    order = args.order if args.order is not None else len(coeffs) - 1
    result = invert_egf_numeric(args.kind, coeffs, order)
    if args.format == "json":
        _print_json([rational_str(c) for c in result])
    else:
        for n, c in enumerate(result):
            print(f"{n}: {rational_str(c)}")
    return 0


def _cmd_wp(args) -> int:
    from .moduli import wp_volume
    from .partitions import check_partition, rational_str

    lam = check_partition(_parse_ints(args.lam))
    value = wp_volume(lam)
    if args.format == "json":
        _print_json({"lambda": list(lam), "wp": rational_str(value)})
    else:
        print(rational_str(value))
    return 0


def _cmd_mobius(args) -> int:
    from .partitions import rational_str, sort_to_partition
    from .posets import _signed_type_coefficient, interval
    from .symfunc import DEFAULT_DEGREE_CAP, _check_cap

    mu = _parse_ints(args.mu)
    if args.verify:
        # the predicted coefficient converts a type sum of degree n-1 (pi) or n (b)
        _check_cap(args.n - 1 if args.poset == "pi" else args.n, DEFAULT_DEGREE_CAP)
    iv = interval(args.poset, args.n, mu)
    value = iv.mobius_invariant()
    if not args.verify:
        if args.format == "json":
            _print_json({"poset": args.poset, "n": args.n,
                         "mu": list(mu), "mobius": value})
        else:
            print(value)
        return 0
    predicted = _signed_type_coefficient(args.poset, args.n, sort_to_partition(mu))
    ok = predicted == value
    if args.format == "json":
        _print_json({"poset": args.poset, "n": args.n, "mu": list(mu),
                     "mobius": value, "coefficient": rational_str(predicted),
                     "pass": ok})
    else:
        print(f"mobius = {value}, signed type-sum coefficient = "
              f"{rational_str(predicted)}: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def expansion_table(r: int, nmax: int = 6) -> str:
    """Canonical text dump of the type-sum expansions in all five bases."""
    from .stirling import stirling_symfunc
    from .symfunc import convert, render_symfunc

    lines = [f"type-sum expansions for r={r}, n=0..{nmax}"]
    for n in range(nmax + 1):
        f = stirling_symfunc(n, r)
        lines.append(f"n={n}")
        for basis in ("m", "e", "h", "s", "p"):
            lines.append(f"  {basis}: {render_symfunc(convert(f, basis))}")
    return "\n".join(lines) + "\n"


def _cmd_tables(args) -> int:
    from pathlib import Path

    from .symfunc import DEFAULT_DEGREE_CAP, _check_cap

    if args.nmax < 0:
        raise ValueError(f"--nmax must be nonnegative, got {args.nmax}")
    _check_cap(args.nmax, DEFAULT_DEGREE_CAP)
    if args.out is None:
        for r in (1, 2):
            sys.stdout.write(expansion_table(r, args.nmax))
        return 0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for r in (1, 2):
        path = outdir / f"expansions_r{r}.txt"
        path.write_text(expansion_table(r, args.nmax), encoding="utf-8")
        print(path)
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "enumerate": _cmd_enumerate,
    "eulerian": _cmd_eulerian,
    "verify": _cmd_verify,
    "invert": _cmd_invert,
    "wp": _cmd_wp,
    "mobius": _cmd_mobius,
    "tables": _cmd_tables,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        code = _COMMANDS[args.verb](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the output is unwanted from here on; send what is still buffered
        # to devnull, so that the flush at shutdown raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
