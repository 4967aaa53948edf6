"""Command-line front end.

One binary with subcommands ``oracle``, ``lower-bound``, ``check-tight``,
``construct``, ``gaussian``, ``probe-uniform``.  Reports go to stdout as
canonical JSON (sorted keys, 17-significant-digit floats, no whitespace), so
identical invocations produce byte-identical output; human-readable messages
go to stderr.

Exit codes: 0 success (including a NotTight verdict from ``check-tight``,
which is data, not failure), 2 input parse/validation error, 3 domain error
during computation, 4 ``construct`` on a class without an additive member.

``oracle``, ``lower-bound`` and ``gaussian`` never load scipy.
``check-tight``, ``construct`` and ``probe-uniform`` import ``scipy.optimize``
only when the tightness certificate needs its LP, that is when Q has null
directions beyond the block shifts that neither the labels of zero
probability nor features that are functions of others (copies, binned
versions) explain, as a sparse support can leave; on full-support inputs,
on inputs that merely leave some labels unused (such as datasets whose
features have different numbers of categories) and on inputs with copied
or binned features, they load no scipy either.  The script entry point is
:func:`run`.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from . import __version__
from .distributions import (
    AlphabetSpec,
    marginal_deviation,
    pairwise_from_dataset,
    pairwise_from_joint,
)
from .errors import MaxcorrError, ValidationError
from .gaussian import min_hgr_gaussian, regression_vector
from .hgr import GenericJoint, flatten_joint, hgr_binary, hgr_svd
from .io import (
    dumps_canonical,
    read_dataset_csv,
    read_generic_csv,
    read_joint_csv,
    read_marginals_json,
    read_moments_json,
    write_joint_csv,
)
from .lowerbound import assemble_qd, gamma_lb_closed, gamma_lb_iterative, rho_lb
from .tightness import check_tightness, construct_additive, is_additive, near_uniform_probe
from .tightness import tolerance

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NOT_TIGHT = 4


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _report(args, digest: str, results: dict) -> dict:
    echo = {k: v for k, v in vars(args).items() if k not in ("func", "command", "tol")}
    return {
        "schema": 1,
        "version": __version__,
        "command": args.command,
        "args": echo,
        "input_digest": digest,
        "tol": args.tol,
        "results": results,
        "warnings": [],
    }


def _emit(report: dict):
    sys.stdout.write(dumps_canonical(report))
    sys.stdout.write("\n")


def _load_marginals(args):
    """(marginals, digest) from --joint/--data/--marginals."""
    if args.joint is not None:
        return pairwise_from_joint(read_joint_csv(args.joint)), _digest_file(args.joint)
    if args.data is not None:
        return pairwise_from_dataset(read_dataset_csv(args.data)), _digest_file(args.data)
    return read_marginals_json(args.marginals), _digest_file(args.marginals)


def cmd_oracle(args) -> int:
    if args.joint is not None:
        joint = read_joint_csv(args.joint)
        digest = _digest_file(args.joint)
        generic = flatten_joint(joint)
    else:
        joint = None
        digest = _digest_file(args.generic)
        generic = read_generic_csv(args.generic)

    result = hgr_svd(generic)
    if joint is not None:
        cross = hgr_binary(joint)
    else:
        # The coefficient is symmetric in its arguments; recomputing on the
        # transposed table is an independent route to the same value.
        cross = hgr_svd(GenericJoint(generic.prob.T, tol=1e-12)).rho
    results = {
        "rho": result.rho,
        "rho_cross_check": float(cross),
        "method_delta": abs(result.rho - float(cross)),
        "f_star": result.f_star,
        "g_star": result.g_star,
        "degenerate": result.degenerate,
    }
    _emit(_report(args, digest, results))
    return EXIT_OK


def cmd_lower_bound(args) -> int:
    marginals, digest = _load_marginals(args)
    system = assemble_qd(marginals)
    closed = gamma_lb_closed(system)
    iterative = gamma_lb_iterative(system)
    results = {
        "gamma_lb_closed": closed,
        "gamma_lb_iterative": iterative.gamma_lb,
        "gamma_delta": abs(closed - iterative.gamma_lb),
        "rho_lb": rho_lb(system),
        "z_star": iterative.z_star,
        "p_y1": system.p_y1,
    }
    _emit(_report(args, digest, results))
    return EXIT_OK


def cmd_check_tight(args) -> int:
    marginals, digest = _load_marginals(args)
    system = assemble_qd(marginals)
    cert = check_tightness(system, tol=args.tol)
    results = {
        "verdict": cert.verdict,
        "z_star": cert.z_star,
        "h_pos": cert.h_pos,
        "h_neg": cert.h_neg,
        "lp_value": cert.lp_value,
        "gamma_lb": gamma_lb_closed(system),
    }
    _emit(_report(args, digest, results))
    return EXIT_OK


def cmd_construct(args) -> int:
    joint = read_joint_csv(args.joint)
    digest = _digest_file(args.joint)
    marginals = pairwise_from_joint(joint)
    system = assemble_qd(marginals)
    cert = check_tightness(system, tol=args.tol)
    if not cert.tight:
        sys.stderr.write(
            f"no additive distribution matches these marginals "
            f"(lp_value = {cert.lp_value:.12g} > 1/2)\n"
        )
        return EXIT_NOT_TIGHT

    constructed = construct_additive(cert.z_star, joint, expected_marginals=marginals, tol=args.tol)
    write_joint_csv(constructed, args.out)

    decomposition = is_additive(constructed, tol=args.tol)
    rho_construction = hgr_svd(flatten_joint(constructed)).rho
    bound = rho_lb(system)
    results = {
        "out": args.out,
        "marginal_match_max_err": marginal_deviation(pairwise_from_joint(constructed), marginals),
        "additivity_residual": decomposition.residual,
        "hgr_construction": rho_construction,
        "rho_lb": bound,
        "delta": abs(rho_construction - bound),
    }
    _emit(_report(args, digest, results))
    return EXIT_OK


def cmd_gaussian(args) -> int:
    moments = read_moments_json(args.moments)
    digest = _digest_file(args.moments)
    a = regression_vector(moments)
    results = {
        "a": a,
        "min_hgr": min_hgr_gaussian(moments),
    }
    _emit(_report(args, digest, results))
    return EXIT_OK


def cmd_probe_uniform(args) -> int:
    spec = AlphabetSpec(args.p, args.m)
    echo = f"p={args.p},m={args.m},eps={args.eps!r},trials={args.trials},seed={args.seed}"
    fraction = near_uniform_probe(spec, args.eps, args.trials, args.seed, tol=args.tol)
    results = {
        "fraction_tight": fraction,
        "p": args.p,
        "m": args.m,
        "eps": args.eps,
        "trials": args.trials,
        "seed": args.seed,
    }
    _emit(_report(args, _digest_text(echo), results))
    return EXIT_OK


def _add_marginal_inputs(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--joint", help="joint CSV (x1,...,xp,y,prob)")
    group.add_argument("--data", help="dataset CSV (x1,...,xp,y)")
    group.add_argument("--marginals", help="pairwise marginals JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcorr",
        description="Maximal-correlation analysis under pairwise-marginal and moment constraints.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=tolerance,
        default=1e-9,
        help="the certificate's slack in check-tight, construct and probe-uniform (default 1e-9)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "oracle", parents=[common], help="exact maximal correlation of a finite joint"
    )
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--joint", help="joint CSV (x1,...,xp,y,prob)")
    group.add_argument("--generic", help="generic CSV (x,y,prob)")
    sub.set_defaults(func=cmd_oracle)

    sub = commands.add_parser(
        "lower-bound", parents=[common], help="separable lower bound from pairwise marginals"
    )
    _add_marginal_inputs(sub)
    sub.set_defaults(func=cmd_lower_bound)

    sub = commands.add_parser(
        "check-tight", parents=[common], help="is the lower bound attained over the class?"
    )
    _add_marginal_inputs(sub)
    sub.set_defaults(func=cmd_check_tight)

    sub = commands.add_parser(
        "construct", parents=[common], help="build the additive-structure joint attaining the bound"
    )
    sub.add_argument("--joint", required=True, help="joint CSV supplying marginals and base")
    sub.add_argument("--out", required=True, help="path for the constructed joint CSV")
    sub.set_defaults(func=cmd_construct)

    sub = commands.add_parser(
        "gaussian", parents=[common], help="moment-constrained minimum (continuous case)"
    )
    sub.add_argument("--moments", required=True, help="moments JSON (mu, lambda)")
    sub.set_defaults(func=cmd_gaussian)

    sub = commands.add_parser(
        "probe-uniform", parents=[common], help="tight fraction near the uniform distribution"
    )
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_probe_uniform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        # Bad or unreadable inputs, including files violating table contracts.
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_PARSE
    except MaxcorrError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


def run():
    """Script entry point: :func:`main`, then exit without interpreter teardown.

    Every file the CLI writes is closed by then; the standard streams are
    flushed here.  Tearing down numpy and scipy would add tens of ms to
    every call.  Exceptions escaping :func:`main`, including argparse's
    ``SystemExit``, propagate as usual.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
