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
import warnings

from . import qalgebra, rmatrix, suites, zhukovski
from .algebra import RepLabels, default_alpha
from .report import c2j

#: ``verify`` flags passed on to the suites, by suite option name.
_SUITE_FLAGS = {"tolerance": "--tolerance", "levels": "--levels",
                "order": "--order", "offshell": "--offshell"}


def _complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from err


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
    for i in range(rm.m.shape[0]):
        for j in range(rm.m.shape[1]):
            z = rm.m[i, j]
            lines.append(f"{i},{j},{z.real!r},{z.imag!r}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
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
    emit.add_argument("--gamma", type=_complex)
    emit.add_argument("--nu", type=_complex)
    emit.add_argument("--gamma2", type=_complex)
    emit.add_argument("--nu2", type=_complex)
    emit.add_argument("--coupling", type=_complex, default=1.0,
                      help="h in the convention alpha1 = -alpha2 = -h/2")
    emit.add_argument("--q", type=_complex)
    emit.add_argument("--lambda1", type=_complex,
                      help="first weight exponent of the first deformed module")
    emit.add_argument("--lambda1-b", type=_complex,
                      help="first weight exponent of the second deformed module")
    emit.add_argument("--root", type=int, default=0, choices=(0, 1),
                      help="which shortening root to take for deformed labels")
    emit.add_argument("--rep-a", help="solve between representation JSON files "
                                      "instead of labels")
    emit.add_argument("--rep-b")
    emit.add_argument("--output", "-o")
    emit.add_argument("--format", choices=("json", "csv"), default="json")

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=sorted(suites.SUITES) + ["all"])
    verify.add_argument("--samples", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tolerance", type=float, default=None)
    verify.add_argument("--levels", type=int, default=None)
    verify.add_argument("--order", type=int, default=None)
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
    qx = psub.add_parser("qx", help="deformed (x+, xi, delta, q) to labels")
    qx.add_argument("--xplus", type=_complex, required=True)
    qx.add_argument("--xi", type=_complex, required=True)
    qx.add_argument("--delta", type=_complex, required=True)
    qx.add_argument("--q", type=_complex, required=True)
    qx.add_argument("--minus-branch", choices=("near-inverse", "near-same"),
                    default="near-inverse")
    qx.add_argument("--output", "-o")
    return parser


def _emit(args) -> int:
    if args.rep_a or args.rep_b:
        if not (args.solve and args.rep_a and args.rep_b):
            raise SystemExit("representation files require --solve with both "
                             "--rep-a and --rep-b")
        from .algebra import GeneratorImage
        with open(args.rep_a) as fh:
            rep_a = GeneratorImage.from_dict(json.load(fh))
        with open(args.rep_b) as fh:
            rep_b = GeneratorImage.from_dict(json.load(fh))
        rm = rmatrix.r_solve(rep_a, rep_b)
        if args.format == "csv":
            _write(_matrix_csv(rm), args.output)
        else:
            _write(json.dumps(rm.to_dict(), indent=2), args.output)
        return 0
    if args.trig:
        for flag in ("theta1", "theta2", "lam"):
            if getattr(args, flag) is None:
                raise SystemExit("--trig needs --theta1, --theta2 and --lambda")
        rm = rmatrix.r_trig(args.theta1, args.theta2, args.lam)
    else:
        if args.q_closed or (args.solve and args.q is not None):
            needed = (args.q, args.lambda1, args.lambda1_b, args.nu, args.nu2)
            if any(v is None for v in needed):
                raise SystemExit("deformed form needs --q, --lambda1, --lambda1-b, "
                                 "--nu and --nu2")
            alpha = default_alpha(args.coupling)
            la = qalgebra.q_labels(args.lambda1, args.nu, args.q, alpha)[args.root]
            lb = qalgebra.q_labels(args.lambda1_b, args.nu2, args.q, alpha)[args.root]
            rm = rmatrix.rq_closed(la, lb)
            if args.solve:
                rm = rmatrix.r_solve(qalgebra.q_atypical_rep(la),
                                     qalgebra.q_atypical_rep(lb),
                                     match_r11=rm.normalization)
        else:
            needed = (args.gamma, args.nu, args.gamma2, args.nu2)
            if any(v is None for v in needed):
                raise SystemExit("closed/solved form needs --gamma, --nu, "
                                 "--gamma2 and --nu2")
            alpha = default_alpha(args.coupling)
            la = RepLabels(args.gamma, args.nu, *alpha)
            lb = RepLabels(args.gamma2, args.nu2, *alpha)
            rm = rmatrix.r_closed(la, lb)
            if args.solve:
                from .algebra import atypical_rep
                rm = rmatrix.r_solve(atypical_rep(la), atypical_rep(lb),
                                     match_r11=rm.normalization)
    if args.format == "csv":
        _write(_matrix_csv(rm), args.output)
    else:
        _write(json.dumps(rm.to_dict(), indent=2), args.output)
    return 0


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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rpt = suites.run_suite(args.suite, samples=args.samples,
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
        "suites": [r.to_dict(include_timestamp=False) for r in reports],
        "max_residual": max(r.max_residual for r in reports),
        "passed": passed,
    }
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.format == "csv":
        text = "".join(r.to_csv() for r in reports)
    else:
        text = json.dumps(payload, indent=2)
    _write(text, args.output)
    return 0 if passed else 1


def _params(args) -> int:
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
            from .algebra import atypical_rep
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
    _write(json.dumps(payload, indent=2), args.output)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "emit-r":
        return _emit(args)
    if args.command == "verify":
        return _verify(args)
    return _params(args)


if __name__ == "__main__":
    raise SystemExit(main())
