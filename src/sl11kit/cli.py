"""Command-line front end.

    sl11kit emit-r   --trig|--closed|--q-closed|--solve ...   emit an R-matrix
    sl11kit verify   {ybe,hopf,yangian,affine,singlet,all}    run a suite
    sl11kit params   {xpm,qx} ...                             label dictionaries

Reports and matrices are written as JSON (``--format csv`` flattens complex
entries to re/im columns); the exit status is 0 exactly when every residual
passed its tolerance.  Runs are deterministic in the seed; ``--no-timestamp``
makes them byte-reproducible.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import qalgebra, rmatrix, suites, zhukovski
from .algebra import GeneratorImage, RepLabels, atypical_rep, default_alpha
from .coproduct import ALGEBRAS
from .report import c2j, json_text

#: ``verify`` flags passed on to the suites, by suite option name.
_SUITE_FLAGS = {"tolerance": "--tolerance", "levels": "--levels",
                "order": "--order", "offshell": "--offshell"}
#: Per ``emit-r`` form: its name in messages, the input flags (argparse dests)
#: it needs, and the optional ones it also reads.
_EMIT_FORMS = {
    "files": ("--solve --rep-a/--rep-b", ("rep_a", "rep_b"), ()),
    "trig": ("--trig", ("theta1", "theta2", "lam"), ()),
    "closed": ("closed/solved form", ("gamma", "nu", "gamma2", "nu2"), ("coupling",)),
    "deformed": ("deformed form", ("q", "lambda1", "lambda1_b", "nu", "nu2"), ("coupling", "root")),
}


def _complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from err


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low`` (a usage error names the flag)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # unparsable text reads "invalid int value"
    return parse


def _write(payload: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(payload)


def _matrix_csv(rm: rmatrix.RMatrix) -> str:
    lines = ["row,col,re,im"]
    for i, row in enumerate(rm.m):
        for j, z in enumerate(row):
            lines.append(f"{i},{j},{float(z.real)!r},{float(z.imag)!r}")
    return "\n".join(lines) + "\n"


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sl11kit",
        description="verification toolkit for the centrally extended sl(1|1)^2 "
                    "worldsheet symmetry and its deformations")
    sub = parser.add_subparsers(dest="command", required=True)

    emit = sub.add_parser("emit-r", help="emit an R-matrix as JSON/CSV")
    kind = emit.add_mutually_exclusive_group(required=True)
    kind.add_argument("--trig", action="store_true", help="trigonometric form")
    kind.add_argument("--closed", action="store_true", help="rational closed form")
    kind.add_argument("--q-closed", action="store_true", help="deformed closed form")
    kind.add_argument("--solve", action="store_true",
                      help="independent nullspace solver (closed-form normalization)")
    emit.add_argument("--theta1", type=float)
    emit.add_argument("--theta2", type=float)
    emit.add_argument("--lambda", dest="lam", type=float)
    for flag in ("--gamma", "--nu", "--gamma2", "--nu2"):
        emit.add_argument(flag, type=_complex)
    emit.add_argument("--coupling", type=_complex,
                      help="h in the convention alpha1 = -alpha2 = -h/2 (default 1)")
    emit.add_argument("--q", type=_complex)
    emit.add_argument("--lambda1", type=_complex,
                      help="first weight exponent of the first deformed module")
    emit.add_argument("--lambda1-b", type=_complex,
                      help="first weight exponent of the second deformed module")
    emit.add_argument("--root", type=int, choices=(0, 1),
                      help="which shortening root to take for deformed labels (default 0)")
    emit.add_argument("--rep-a", help="solve between representation JSON files "
                                      "instead of labels")
    emit.add_argument("--rep-b")
    emit.add_argument("--output", "-o")
    emit.add_argument("--format", choices=("json", "csv"), default="json")
    emit.set_defaults(usage_error=emit.error)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    verify.add_argument("--samples", type=_int_at_least(1), default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float, default=None)
    verify.add_argument("--levels", type=_int_at_least(0), default=None)
    verify.add_argument("--order", type=_int_at_least(2), default=None)
    verify.add_argument("--offshell", action="store_true", default=None,
                        help="draw |nu| != 1 labels where supported")
    verify.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-reproducible output")
    verify.add_argument("--output", "-o")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.set_defaults(usage_error=verify.error)

    params = sub.add_parser("params", help="convert physical parametrizations")
    psub = params.add_subparsers(dest="dictionary", required=True)
    xpm = psub.add_parser("xpm", help="worldsheet (p, M, h) to labels")
    xpm.add_argument("--p", type=_complex, required=True)
    xpm.add_argument("--M", dest="m", type=_complex, required=True)
    xpm.add_argument("--h", type=_complex, required=True)
    xpm.add_argument("--branch", choices=("outside", "inside"), default="outside")
    xpm.add_argument("--mover", choices=("left", "right"), default="left")
    xpm.add_argument("--emit-rep", action="store_true",
                     help="include the atypical representation (generator "
                          "images as JSON) in the output")
    xpm.add_argument("--output", "-o")
    xpm.set_defaults(usage_error=xpm.error)
    qx = psub.add_parser("qx", help="deformed (x+, xi, delta, q) to labels")
    for flag in ("--xplus", "--xi", "--delta", "--q"):
        qx.add_argument(flag, type=_complex, required=True)
    qx.add_argument("--minus-branch", choices=("near-inverse", "near-same"),
                    default="near-inverse")
    qx.add_argument("--output", "-o")
    qx.set_defaults(usage_error=qx.error)
    return parser


def _load_rep(path: str, usage_error) -> GeneratorImage:
    """A representation file: a bare representation, or the ``representation``
    entry of a ``params xpm --emit-rep`` payload; anything else is a usage error."""
    with open(path) as fh:
        try:
            blob = json.load(fh)
            rep = GeneratorImage.from_dict(blob.get("representation", blob))
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            usage_error(f"{path} is not a representation file: {err!r}")
    if rep.kind not in ALGEBRAS:
        usage_error(f"{path} holds a module of unknown kind {rep.kind!r}")
    return rep


def _emit(args) -> str:
    """The chosen form's R-matrix as text; an input flag it does not read is a usage error."""
    fail = args.usage_error
    form = ("files" if args.rep_a or args.rep_b else "trig" if args.trig
            else "deformed" if args.q_closed or (args.solve and args.q is not None) else "closed")
    if form == "files" and not (args.solve and args.rep_a and args.rep_b):
        fail("representation files require --solve with both --rep-a and --rep-b")
    name, needs, also = _EMIT_FORMS[form]
    flag = {dest: "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            for _, needed, optional in _EMIT_FORMS.values() for dest in needed + optional}
    unread = [flag[dest] for dest in flag
              if getattr(args, dest) is not None and dest not in needs + also]
    if unread:
        fail(f"{name} does not take {', '.join(unread)}")
    if any(getattr(args, dest) is None for dest in needs):
        *head, last = (flag[dest] for dest in needs)
        fail(f"{name} needs {', '.join(head)} and {last}")
    if form == "files":
        rm = rmatrix.r_solve(*(_load_rep(path, fail) for path in (args.rep_a, args.rep_b)))
    elif form == "trig":
        rm = rmatrix.r_trig(args.theta1, args.theta2, args.lam)
    else:
        alpha = default_alpha(1.0 if args.coupling is None else args.coupling)
        if form == "deformed":
            la, lb = (qalgebra.q_root_labels(lam, nu, args.q, alpha, args.root or 0)
                      for lam, nu in ((args.lambda1, args.nu), (args.lambda1_b, args.nu2)))
            closed, build = rmatrix.rq_closed, qalgebra.q_atypical_rep
        else:
            la = RepLabels(args.gamma, args.nu, *alpha)
            lb = RepLabels(args.gamma2, args.nu2, *alpha)
            closed, build = rmatrix.r_closed, atypical_rep
        rm = closed(la, lb)
        if args.solve:
            rm = rmatrix.r_solve(build(la), build(lb), match_r11=rm.normalization)
    return _matrix_csv(rm) if args.format == "csv" else json.dumps(rm.to_dict(), indent=2)


def _verify(args) -> int:
    """Run a suite (or all of them); returns the process exit status.

    A flag the chosen suite does not take (under ``all``: that no suite
    takes) is a usage error.
    """
    options = {name: getattr(args, name) for name in _SUITE_FLAGS}
    try:
        if args.suite == "all":
            reports = suites.run_all(samples=args.samples, seed=args.seed, **options)
        else:
            rpt = suites.run_recorded(args.suite, samples=args.samples,
                                      seed=args.seed, **options)
    except suites.UnsupportedOptionError as err:
        flags = ", ".join(_SUITE_FLAGS[name] for name in err.options)
        args.usage_error(f"{args.suite} does not take {flags}")
    if args.suite != "all":
        text = rpt.to_csv() if args.format == "csv" else rpt.to_json(
            include_timestamp=not args.no_timestamp)
        _write(text, args.output)
        return 0 if rpt.passed else 1
    passed = all(r.passed for r in reports)
    payload = {
        "suite": "all",
        "seed": args.seed,
        "samples": args.samples,
        "suites": [r.json_fields(include_timestamp=False) for r in reports],
        "max_residual": max(r.max_residual for r in reports),
        "passed": passed,
    }
    if not args.no_timestamp:
        warned = [{"suite": r.suite, "category": c, "message": m, "count": n}
                  for r in reports for c, m, n in r.warnings]
        if warned:
            payload["warnings"] = warned
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.format == "csv":
        # one header row: drop it from every report after the first
        tables = [r.to_csv() for r in reports]
        text = tables[0] + "".join(t.partition("\n")[2] for t in tables[1:])
    else:
        text = json_text(payload)
    _write(text, args.output)
    return 0 if passed else 1


def _params(args) -> str:
    if args.dictionary == "xpm":
        zp = zhukovski.zhukovski_solve(args.p, args.m, args.h, branch=args.branch)
        build = zhukovski.left_labels if args.mover == "left" else zhukovski.right_labels
        labels, pack = build(zp)
        payload = {
            "x": {"xplus": c2j(zp.xplus), "xminus": c2j(zp.xminus),
                  "p": c2j(zp.p), "M": c2j(zp.m), "h": c2j(zp.h)},
            "labels": {"gamma": c2j(labels.gamma), "nu": c2j(labels.nu),
                       "alpha": [c2j(labels.alpha1), c2j(labels.alpha2)],
                       "lambda1": c2j(labels.lambda1), "lambda2": c2j(labels.lambda2),
                       "mu1": c2j(labels.mu1), "mu2": c2j(labels.mu2)},
            "pack": {k: c2j(v) for k, v in pack._asdict().items()},
            "mover": args.mover,
        }
        if args.emit_rep:
            payload["representation"] = atypical_rep(labels).to_dict()
    else:
        qzp = zhukovski.q_zhukovski_point(args.xplus, args.xi, args.delta, args.q,
                                          minus_branch=args.minus_branch)
        labels, pack = zhukovski.q_labels_from_x(qzp)
        payload = {
            "x": {"xplus": c2j(qzp.xplus), "xminus": c2j(qzp.xminus),
                  "xi": c2j(qzp.xi), "delta": c2j(qzp.delta),
                  "q": c2j(qzp.q), "h": c2j(qzp.h)},
            "labels": labels.to_dict(),
            "pack": {k: c2j(v) for k, v in pack._asdict().items()},
        }
    return json.dumps(payload, indent=2)


def main(argv=None) -> int:
    """Run one command.  A library ``ValueError`` from ``emit-r`` or
    ``params`` (degenerate labels or shell data) is a usage error."""
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _verify(args)
    try:
        text = _emit(args) if args.command == "emit-r" else _params(args)
    except ValueError as err:
        args.usage_error(str(err))
    _write(text, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
