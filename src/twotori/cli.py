"""Command-line front end: exact computations and verification suites.

Exit codes form the CI contract: 0 all checks pass, 1 a verification check
failed, 2 usage error, 3 internal fault, 141 stdout closed early (see
``run``).  Output is deterministic: identical flags produce byte-identical
bytes, rationals always render as p/q (never floats).
"""

from __future__ import annotations

# ring first: a run without bytecode caches then compiles it before argparse
# loads, which lowers the child's peak RSS; json loads only for --format json.
from .ring import _Record, quasimodular_monomials, rat_str, symbolic_factor

import argparse
import os
import sys
from fractions import Fraction

from .reports import Report

# series, sewing, genus2, virasoro and zhu are imported by the commands that
# run them, so `verify structure` never compiles the q-series engine.
VERIFY_ERROR, USAGE_ERROR, INTERNAL_ERROR, BROKEN_PIPE = 1, 2, 3, 141

THETA_SUITE_PAIRS = (("0", 1), ("1", 1), ("1/4", 2), ("2", 1))

FORMATS = ("table", "json")


def _recognition_q_order(cfg) -> int:
    # Recognition at the top even weight w <= --max-weight fits one
    # coefficient per monomial E2^a E4^b E6^c of weight w and checks the fit
    # with one more, so it needs q^0..q^k with k the number of monomials.
    return len(quasimodular_monomials(cfg.max_weight - cfg.max_weight % 2))


# Smallest value of an order flag that each command accepts (a number, or
# a function of the resolved config), and why: a smaller one would build
# nothing to check, check nothing, or fail deep inside the work.
_MATRICES = ("eps_order", 1, "the moment matrices start at eps^1")
_FREE_BOSON = ("eps_order", 4, "the free-boson checks read eps^4")
_STRUCTURE = ("max_weight", 2, "the structure checks start at weight 2")
_Q_SERIES = ("q_order", 1, "the checks compare q-series, and q^0 alone shows no q-dependence")
_RECOGNITION = ("q_order", _recognition_q_order,
                "a top-weight coefficient could be recognized at the labelled order: "
                "one q-coefficient per monomial E2^a E4^b E6^c, plus one to check the fit")
MIN_ORDERS = {
    ("compute", "tau-degen"): (_MATRICES,),
    ("compute", "period"): (_MATRICES,),
    ("compute", "z2-heisenberg"): (_MATRICES,),
    ("compute", "z2-module"): (_MATRICES,),
    ("verify", "modular-identities"): (_Q_SERIES,),
    ("verify", "detHi"): (_MATRICES, _Q_SERIES),
    ("verify", "theta-degen"): (_MATRICES, _Q_SERIES),
    ("verify", "heisenberg-degen"): (_FREE_BOSON, _Q_SERIES),
    ("verify", "structure"): (_STRUCTURE, _RECOGNITION),
    ("verify", "all"): (_FREE_BOSON, _STRUCTURE, _RECOGNITION),
}
# Largest value of each order flag, for every command: the work grows about
# threefold per +4 of order (on a 2-vCPU VM, `verify all` at 32/32/32 takes
# 6.5-7.2 s and 98 MB; the matrix size changes no output, since an expansion
# through eps^T reads matrix indices <= T only), so a larger request exits 2
# before any work starts.  `beta --max` is capped likewise, above the largest
# weight `lambda` reads betas for (--max 80 takes 1 s, 160 takes 26 s), and
# so is `compute eisenstein --k`, at twice the largest weight any command
# reads an E_k of (--k 400 takes 1 s, 1200 takes 50 s).
MAX_ORDERS = {"eps_order": 32, "q_order": 32, "max_weight": 32, "matrix_size": 64}
MAX_BETA = MAX_EISENSTEIN_K = 64
# `lambda` also runs its dual oracle (fresh runs on a 2-vCPU VM: 0.9-1.1 s
# at 24, 1.5-1.9 s at 26, 2.5-2.7 s at 28, 4.6-5.6 s at 30, 8.9-10.2 s at
# 32), so it stops at the largest weight that meets a 10 s budget with at
# least 1.8x to spare for a slower or loaded host.
MAX_LAMBDA_WEIGHT = 30


class RunConfig(_Record):
    """Resolved global options; fully deterministic (no seeds, no env)."""
    _fields = ("eps_order", "q_order", "max_weight", "matrix_size", "fmt")

    def __init__(self, eps_order: int = 8, q_order: int = 8, max_weight: int = 8,
                 matrix_size: int = 8, fmt: str = "table"):
        super().__init__(eps_order, q_order, max_weight, matrix_size, fmt)


class UsageError(Exception):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"not an exact rational: {text!r} ({err})")


def _parse_partition(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"malformed partition {text!r}; expected like '2,2'")
    if not parts or any(p < 2 for p in parts):
        raise UsageError("partition parts must be integers >= 2")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise UsageError("partition parts must be weakly decreasing")
    return parts


def _read_config(path: str) -> dict:
    allowed = {"eps-order": int, "q-order": int, "max-weight": int,
               "matrix-size": int, "format": str}
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in allowed:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    out[key.replace("-", "_")] = allowed[key](value)
                except ValueError:
                    raise UsageError(f"{path}:{lineno}: bad value for {key}")
                if key == "format" and value not in FORMATS:
                    raise UsageError(f"{path}:{lineno}: format must be one of "
                                     f"{', '.join(FORMATS)}, not {value!r}")
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}")
    return out


def _add_global_options(p, in_subparser: bool) -> None:
    # Registered on the main parser and again on every subcommand so the
    # flags are accepted in either position; SUPPRESS keeps a subcommand
    # from clobbering a value given before the command name.
    d = argparse.SUPPRESS if in_subparser else None
    p.add_argument("--eps-order", type=int, default=d,
                   help="truncation order in the sewing parameter (default 8)")
    p.add_argument("--q-order", type=int, default=d,
                   help="q-series truncation order (default 8)")
    p.add_argument("--max-weight", type=int, default=d,
                   help="maximum descendant weight (default 8)")
    p.add_argument("--matrix-size", type=int, default=d,
                   help="at least the eps order, at most 64; changes no output")
    p.add_argument("--format", choices=FORMATS, default=d,
                   help="output format (default table)")
    p.add_argument("--config", default=d,
                   help="flat key=value file with the same option names")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotori",
        description="Exact genus-two sewing data for torus partition functions, "
                    "with mechanical verification of the degeneration identities.")
    _add_global_options(parser, in_subparser=False)

    sub = parser.add_subparsers(dest="command", required=True)

    p_beta = sub.add_parser("beta", help="conformal-map coefficient table")
    p_beta.add_argument("--max", type=int, default=14, dest="max_k",
                        help="largest (even) index to print")
    _add_global_options(p_beta, in_subparser=True)

    p_lambda = sub.add_parser("lambda", help="vacuum descendant vectors per weight")
    _add_global_options(p_lambda, in_subparser=True)

    p_compute = sub.add_parser("compute", help="print one exact object")
    p_compute.add_argument("object", choices=(
        "eisenstein", "eta", "tau-degen", "period", "z2-heisenberg",
        "z2-module", "onepoint"))
    p_compute.add_argument("--k", type=int, default=None, help="Eisenstein weight")
    p_compute.add_argument("--partition", default=None,
                           help="descendant modes, e.g. 2,2")
    p_compute.add_argument("--basis", choices=("z", "theta"), default="z")
    p_compute.add_argument("--alpha-sq", default="0")
    p_compute.add_argument("--beta-sq", default="0")
    p_compute.add_argument("--alpha-dot-beta", default="0")
    p_compute.add_argument("--rank", type=int, default=1)
    _add_global_options(p_compute, in_subparser=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(
        "all", "detHi", "heisenberg-degen", "theta-degen",
        "modular-identities", "structure"))
    p_verify.add_argument("--alpha-sq", default="0")
    p_verify.add_argument("--beta-sq", default="0")
    p_verify.add_argument("--alpha-dot-beta", default="0")
    p_verify.add_argument("--rank", type=int, default=1)
    _add_global_options(p_verify, in_subparser=True)
    return parser


def resolve_config(args) -> RunConfig:
    base = {"eps_order": 8, "q_order": 8, "max_weight": 8,
            "matrix_size": None, "format": "table"}
    if getattr(args, "config", None):
        base.update(_read_config(args.config))
    for key in ("eps_order", "q_order", "max_weight", "matrix_size", "format"):
        value = getattr(args, key, None)
        if value is not None:
            base[key] = value
    if base["matrix_size"] is None:
        base["matrix_size"] = base["eps_order"]
    cfg = RunConfig(eps_order=base["eps_order"], q_order=base["q_order"],
                    max_weight=base["max_weight"], matrix_size=base["matrix_size"],
                    fmt=base["format"])
    if cfg.eps_order < 0 or cfg.q_order < 0 or cfg.max_weight < 0:
        raise UsageError("orders must be non-negative")
    for key, cap in MAX_ORDERS.items():
        if getattr(cfg, key) > cap:
            raise UsageError(f"--{key.replace('_', '-')} must be <= {cap} "
                             "(the work grows about threefold per +4 of order)")
    if cfg.matrix_size < cfg.eps_order:
        raise UsageError("matrix size must be at least the eps order")
    target = getattr(args, "object", None) or getattr(args, "suite", None)
    for key, minimum, why in MIN_ORDERS.get((args.command, target), ()):
        if callable(minimum):
            minimum = minimum(cfg)
        if getattr(cfg, key) < minimum:
            flag = key.replace("_", "-")
            raise UsageError(f"{args.command} {target} needs --{flag} >= {minimum} ({why})")
    return cfg


def _emit(cfg: RunConfig, json_obj, table_text) -> None:
    # The JSON form or the table, each a zero-argument callable: only the
    # format asked for is rendered.
    if cfg.fmt == "json":
        import json
        print(json.dumps(json_obj(), indent=2))
    else:
        print(table_text())


def _module_pair(args):
    from .genus2 import ModulePair
    try:
        return ModulePair(args.rank, _parse_fraction(args.alpha_sq),
                          _parse_fraction(args.beta_sq),
                          _parse_fraction(args.alpha_dot_beta))
    except ValueError as err:
        raise UsageError(str(err))


def cmd_beta(args, cfg: RunConfig) -> int:
    from .virasoro import beta_coefficients
    if args.max_k < 2 or args.max_k % 2:
        raise UsageError("--max must be an even integer >= 2")
    if args.max_k > MAX_BETA:
        raise UsageError(f"--max must be <= {MAX_BETA}")
    betas = beta_coefficients(args.max_k)
    _emit(cfg, lambda: {"betas": {str(k): rat_str(b) for k, b in betas}},
          lambda: "   k  beta_k\n" + "\n".join(f"{k:>4}  {rat_str(b)}" for k, b in betas))
    return 0


def cmd_lambda(args, cfg: RunConfig) -> int:
    w = cfg.max_weight
    if w < 0 or w % 2:
        raise UsageError("--max-weight must be an even integer >= 0")
    if w > MAX_LAMBDA_WEIGHT:
        raise UsageError(f"lambda --max-weight must be <= {MAX_LAMBDA_WEIGHT}")
    from .virasoro import lambda_vector, lambda_vector_direct
    lam = lambda_vector(w)
    lam_direct = lambda_vector_direct(w)
    agree = all(a == b for a, b in zip(lam, lam_direct))
    _emit(cfg, lambda: {"weights": {str(n): lam[n].to_json() for n in range(0, w + 1, 2)},
                        "dual_oracle_agrees": agree},
          lambda: "\n".join([*(f"weight {n}:  {lam[n]}" for n in range(0, w + 1, 2)),
                             f"dual construction (factored map vs exponential sum) agrees: "
                             f"{agree}"]))
    return 0 if agree else VERIFY_ERROR


def cmd_compute(args, cfg: RunConfig) -> int:
    from .series import eisenstein, eta_normalized
    obj, text = args.object, None  # text: the table's renderer, when not str(s)
    if obj == "eisenstein":
        if args.k is None:
            raise UsageError("compute eisenstein needs --k")
        if args.k < 2:
            raise UsageError("Eisenstein weight must be >= 2")
        if args.k > MAX_EISENSTEIN_K:
            raise UsageError(f"--k must be <= {MAX_EISENSTEIN_K}")
        s = eisenstein(args.k, cfg.q_order)
    elif obj == "eta":
        s = eta_normalized(cfg.q_order)
    elif obj == "tau-degen":
        from . import sewing
        s = sewing.degenerate_tau(cfg.q_order, cfg.eps_order)
        text = lambda: _render_eps_quasimodular(s, sewing._degenerate_sewing(cfg.eps_order)[1])
    elif obj == "period":
        from . import sewing
        s = sewing.period_matrix(cfg.q_order, cfg.q_order, cfg.eps_order)
        text = lambda: "\n".join(f"{name} = {series}" for name, series in
                                 (("d11", s.d11), ("d22", s.d22), ("d12", s.d12)))
    elif obj == "z2-heisenberg":
        from . import genus2
        s = genus2.z2_heisenberg(cfg.q_order, cfg.q_order, cfg.eps_order)
    elif obj == "z2-module":
        from . import genus2
        s = genus2.z2_module_pair(_module_pair(args), cfg.q_order, cfg.q_order, cfg.eps_order)
    elif obj == "onepoint":
        if not args.partition:
            raise UsageError("compute onepoint needs --partition")
        parts = _parse_partition(args.partition)
        from .zhu import one_point_word, to_theta_basis
        s = one_point_word(parts, cfg.q_order)
        if args.basis == "theta":
            s = to_theta_basis(s)
        text = lambda: s.render_symbolic(sum(parts))
    else:
        raise UsageError(f"unknown object {obj!r}")
    _emit(cfg, s.to_json, text or s.__str__)
    return 0


def _render_eps_quasimodular(series, blocks) -> str:
    """The tau-degen eps-series with its eps^n block, of weight n - 2, as the
    polynomial ``blocks[n]`` in E2, E4, E6 where ``symbolic_factor`` finds
    it legible."""
    return series.render(lambda n, c: symbolic_factor(blocks[n], n - 2, c))


def _modular_identities_report(q_order: int) -> Report:
    from .series import eisenstein, eta_normalized, qd
    report = Report(title="modular identities")
    e2 = eisenstein(2, q_order)
    lhs = qd(e2)
    rhs = eisenstein(4, q_order) * 5 - e2 * e2
    report.add(f"qd E2 == 5 E4 - E2^2 to q-order {q_order}", lhs == rhs,
               order=f"q<={q_order}",
               expected=str(rhs), computed=str(lhs))
    eta = eta_normalized(q_order)
    lhs2 = qd(eta)
    rhs2 = e2 * eta * Fraction(-1, 2)
    report.add(f"qd eta == -1/2 E2 eta to q-order {q_order}", lhs2 == rhs2,
               order=f"q<={q_order}",
               expected=str(rhs2), computed=str(lhs2))
    odd_zero = all(eisenstein(k, q_order).is_zero() for k in (3, 5, 7, 9, 11))
    report.add("E_k == 0 for odd k", odd_zero, order="k in {3,5,7,9,11}")
    return report


def _structure_report(max_weight: int, q_order: int) -> Report:
    from .virasoro import partitions_of_weight
    from .zhu import structure_check
    report = Report(title=f"1-point operator structure for weights <= {max_weight}")
    for n in range(2, max_weight + 1):
        for parts in partitions_of_weight(n):
            sub = structure_check(parts, q_order)
            ok = sub.passed
            report.add(f"structure of {','.join(map(str, parts))}", ok,
                       order=f"q<={q_order}")
            if not ok:
                report.extend(sub)
    return report


def cmd_verify(args, cfg: RunConfig) -> int:
    suite = args.suite
    if suite == "theta-degen":
        pair = _module_pair(args)
        if pair.beta_sq or pair.alpha_dot_beta:
            raise UsageError("theta degeneration check needs beta = 0")
    reports = []
    if suite in ("modular-identities", "all"):
        reports.append(_modular_identities_report(max(cfg.q_order, 20)
                                                  if suite == "all" else cfg.q_order))
    if suite in ("detHi", "heisenberg-degen", "theta-degen", "all"):
        from . import genus2
    if suite in ("detHi", "all"):
        reports.append(genus2.verify_detHi(cfg.eps_order, cfg.q_order))
    if suite in ("heisenberg-degen", "all"):
        reports.append(genus2.verify_heisenberg_degeneration(cfg.eps_order, cfg.q_order))
    if suite == "theta-degen":
        reports.append(genus2.verify_theta_degeneration(pair, cfg.eps_order, cfg.q_order))
    if suite == "all":
        for alpha_sq, rank in THETA_SUITE_PAIRS:
            reports.append(genus2.verify_theta_degeneration(
                genus2.ModulePair(rank, Fraction(alpha_sq)), cfg.eps_order, cfg.q_order))
    if suite in ("structure", "all"):
        reports.append(_structure_report(cfg.max_weight, cfg.q_order))
    if not reports:
        raise UsageError(f"unknown suite {suite!r}")

    all_pass = all(r.passed for r in reports)
    if cfg.fmt == "json":
        import json
        print(json.dumps({"pass": all_pass,
                          "reports": [r.to_json() for r in reports]}, indent=2))
    else:
        print("\n\n".join(r.render_table() for r in reports))
    return 0 if all_pass else VERIFY_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        cfg = resolve_config(args)
        if args.command == "beta":
            return cmd_beta(args, cfg)
        if args.command == "lambda":
            return cmd_lambda(args, cfg)
        if args.command == "compute":
            return cmd_compute(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


def run() -> int:
    """``main`` as a process entry point: an internal fault prints its
    traceback to stderr and returns INTERNAL_ERROR, not a check's 1; stdout
    closed by its reader (``| head``) returns BROKEN_PIPE, as SIGPIPE would."""
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet last flush
        return BROKEN_PIPE
    except Exception:
        import traceback
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(run())
