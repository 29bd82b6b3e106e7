"""Command-line surface: one binary, one subcommand per module.

Outputs are single JSON documents (schema-versioned, with the resolved
configuration echoed so a run is reproducible from its own output) or
RFC-4180 CSV tables.  All randomness flows from --seed, which is mandatory
for every estimating command; --threads (or BOGO_THREADS) only changes wall
time, never results.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import (dynamics, equilibrium, functionals, kernel, oracle, potentials,
               quadrature, sampler, trajectories, verify)
from .params import MeasureParams, ParameterError

SCHEMA_VERSION = 1

#: errors that mean "the computation failed", not "the flags were wrong"
_NUMERICAL_ERRORS = (
    sampler.NonFiniteSamplesError,
    oracle.CombinatorialExplosionError,
    np.linalg.LinAlgError,
    dynamics.ConvergenceError,
)


def _add_measure_flags(sp):
    sp.add_argument("--m", type=float, default=1.0, help="mass")
    sp.add_argument("--omega", type=float, default=1.0, help="frequency")
    sp.add_argument("--beta", type=float, default=1.0, help="inverse temperature")


def _add_io_flags(sp):
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", help="output file (default stdout)")
    sp.add_argument("--threads", type=int, default=None,
                    help="worker threads (default BOGO_THREADS or 1)")


def _measure(args) -> MeasureParams:
    return MeasureParams(m=args.m, omega=args.omega, beta=args.beta)


def _threads(args) -> int:
    if getattr(args, "threads", None):
        return args.threads
    return int(os.environ.get("BOGO_THREADS", "1"))


def _parse_values(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _build_functional(args):
    params = {}
    for item in args.f_param or []:
        key, _, raw = item.partition("=")
        if not raw:
            raise ParameterError(f"functional parameter {item!r} is not key=value")
        vals = _parse_values(raw)
        params[key] = tuple(vals) if "," in raw or key.endswith("s") else vals[0]
    if args.functional == "monomial" and "times_at" not in params and "times" in params:
        params["times_at"] = params.pop("times")
    return functionals.make(args.functional, **params)


def _build_potential(args) -> potentials.Potential:
    kwargs = {}
    if args.potential == "quadratic" and args.kappa is not None:
        kwargs["kappa"] = args.kappa
    if args.potential == "quartic" and args.g is not None:
        kwargs["g"] = args.g
    if args.potential == "constant":
        kwargs["c"] = args.c if args.c is not None else 0.0
    return potentials.make(args.potential, **kwargs)


def _emit(args, command: str, config: dict, result, csv_rows=None, csv_header=None) -> None:
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        doc = {"schema_version": SCHEMA_VERSION, "command": command,
               "config": config, "result": result}
        text = json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _config_dict(args, skip=("func", "config", "output", "format")) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_kernel(args) -> None:
    p = _measure(args)
    result: dict = {}
    if args.grid is not None:
        gc = kernel.grid_covariance(p, args.grid)
        result["grid"] = {
            "n": args.grid,
            "diag": float(gc.a[0, 0]),
            "log_det_a_inv": gc.log_det_a_inv,
            "max_inverse_residual": float(np.max(np.abs(gc.a @ gc.a_inv - np.eye(args.grid)))),
        }
    if args.n_max is not None:
        pairs = kernel.eigen_system(p, args.n_max)
        result["eigen"] = [{"n": ep.n, "lambda": ep.lam} for ep in pairs]
    if args.t is not None and args.s is not None:
        result["covariance"] = kernel.covariance(p, args.t, args.s)
    if not result:
        result["covariance_diag"] = p.marginal_variance
        result["trace_b"] = p.trace_b
    _emit(args, "kernel", _config_dict(args), result)


def _cmd_oracle(args) -> None:
    p = _measure(args)
    q = args.quantity
    result: dict = {"quantity": q}
    if q == "wick":
        times = tuple(_parse_values(args.times or ""))
        result["value"] = oracle.wick_moment(p, oracle.WickSpec(times))
    elif q == "det":
        result["value"] = oracle.fredholm_det(p, args.lam).value
    elif q == "exp-quad":
        result["value"] = oracle.exp_quadratic(p, args.lam)
    elif q == "moment":
        result["value"] = oracle.moment_mk(p, args.k)
    elif q == "exp-aq2":
        result["value"] = oracle.exp_a_qsquared(p, args.a)
    elif q == "trace":
        sv = oracle.iterated_trace(p, args.k, args.n_max or 100_000)
        result.update({"value": sv.value, "n_terms": sv.n_terms,
                       "tail_bound": sv.tail_bound})
    elif q == "product":
        sv = oracle.infinite_product(args.a, args.b, args.n_max or 100_000)
        result.update({"value": sv.value, "n_terms": sv.n_terms,
                       "tail_bound": sv.tail_bound,
                       "closed_form": oracle.infinite_product_closed_form(args.a, args.b)})
    _emit(args, "oracle", _config_dict(args), result)


def _cmd_sample(args) -> None:
    p = _measure(args)
    if args.method == "finite":
        times, values = sampler.sample_finite(p, args.grid, args.paths, args.seed)
    else:
        times, values = sampler.sample_kl(p, args.modes, args.grid, args.paths, args.seed)
    rows = [[f"{t!r}", i, f"{v!r}"] for i, path in enumerate(values.tolist())
            for t, v in zip(times.tolist(), path)]
    result = {
        "n_paths": len(values),
        "grid_points": len(times),
        "value_mean": float(values.mean()),
        "value_var": float(values.var()),
    }
    _emit(args, "sample", _config_dict(args), result,
          csv_rows=rows, csv_header=["t", "path", "value"])


def _cmd_estimate(args) -> None:
    p = _measure(args)
    func = _build_functional(args)
    rep = sampler.estimate(p, func, method=args.method, n_paths=args.paths,
                           n_grid=args.grid, n_modes=args.modes, seed=args.seed,
                           threads=_threads(args))
    _emit(args, "estimate", _config_dict(args), {
        "functional": func.name, "estimate": rep.estimate,
        "std_error": rep.std_error, "n_samples": rep.n_samples,
        "method": rep.method, "seed": rep.seed,
    })


def _cmd_quad(args) -> None:
    p = _measure(args)
    times = tuple(_parse_values(args.times or ""))
    poly = quadrature.FunctionalPolynomial.monomial(times) if times else \
        quadrature.FunctionalPolynomial.constant(1.0)
    rho = quadrature.ContinuousRho(p) if args.rho == "cont" else \
        quadrature.DiscreteRho(p, n_bands=args.bands)
    result: dict = {"rule": args.rule}
    if args.rule == "thm1":
        val = quadrature.thm1_integrate(p, poly, args.n, rho)
        result.update({"value": val.real, "value_imag": val.imag})
        value = val.real
    elif args.rule == "thm2":
        a_const = args.A if args.A is not None else float(args.n + 1)
        value = quadrature.thm2_integrate(p, poly, args.n, a_const, rho)
        result["value"] = value
        result["A"] = a_const
    elif args.rule == "thm3":
        value = quadrature.thm3_integrate(p, poly, n_modes=args.modes)
        result["value"] = value
    else:
        consts = quadrature.thm4_constants(p, args.n)
        result.update({"trace_b": consts.trace_b, "A": consts.a_total,
                       "Bk": consts.b_seq.tolist(), "Ak": consts.a_seq.tolist()})
        _emit(args, "quad", _config_dict(args), result)
        return
    if args.rule in ("thm1", "thm2") and len(times) <= oracle.PAIRING_DEFAULT_CAP:
        exact = poly.gauss_expectation(p)
        result.update({"oracle_value": exact, "abs_err": abs(value - exact),
                       "rel_err": abs(value - exact) / (1.0 + abs(exact))})
    _emit(args, "quad", _config_dict(args), result)


def _cmd_qvar(args) -> None:
    p = _measure(args)
    n_list = [int(v) for v in _parse_values(args.n_list)]
    reports = [trajectories.qvar_report(p, n, n_paths=args.paths, seed=args.seed,
                                        threads=_threads(args)) for n in n_list]
    rows = [[r.n_partition, f"{r.exact_mean!r}", f"{r.exact_deviation!r}",
             f"{r.estimate!r}", f"{r.std_error!r}"] for r in reports]
    result = [{"N": r.n_partition, "exact_mean": r.exact_mean,
               "exact_I_N": r.exact_deviation, "sample_mean": r.estimate,
               "std_error": r.std_error, "levy_limit": r.levy_limit}
              for r in reports]
    _emit(args, "qvar", _config_dict(args), result, csv_rows=rows,
          csv_header=["N", "exact_mean", "exact_I_N", "sample_mean", "std_error"])


def _cmd_fk(args) -> None:
    p = _measure(args)
    v_pot = _build_potential(args)
    sol = dynamics.fk_solve_volterra(p, v_pot, beta_max=args.beta_max,
                                     n_tau=args.n_beta, n_xi=args.n_xi,
                                     xi_max=args.xi_max)
    result: dict = {
        "potential": v_pot.name,
        "beta_max": args.beta_max,
        "error_estimate": sol.error_estimate,
        "u_final_max": float(np.max(sol.u[-1])),
        "u_final_mass": float(np.trapezoid(sol.u[-1], sol.xi)),
    }
    rows = []
    for i, b in enumerate(sol.betas):
        for x, v in zip(sol.xi, sol.u[i]):
            rows.append([f"{b!r}", f"{x!r}", f"{v!r}"])
    if args.mc_paths:
        if args.seed is None:
            raise ParameterError("--seed is required when --mc-paths is set")
        xi_mc = np.array(_parse_values(args.mc_xi))
        est = dynamics.fk_estimate_mc(p, v_pot, xi_mc, delta=args.delta,
                                      n_paths=args.mc_paths, seed=args.seed,
                                      threads=_threads(args))
        sol_at = np.array([sol.at(p.beta, float(x)) for x in xi_mc])
        result["mc_cross_validation"] = {
            "xi": xi_mc.tolist(), "mc_estimate": est.estimate.tolist(),
            "mc_std_error": est.std_error.tolist(),
            "volterra_value": sol_at.tolist(), "delta": args.delta,
        }
    _emit(args, "fk", _config_dict(args), result, csv_rows=rows,
          csv_header=["beta", "xi", "u"])


def _cmd_equilibrium(args) -> None:
    p = _measure(args)
    v_pot = _build_potential(args)
    h_values = _parse_values(args.h_list)
    dom = equilibrium.domination_check(p, v_pot, h_values, n_paths=args.paths,
                                       seed=args.seed, threads=_threads(args))
    q2 = equilibrium.mean_square_q(p, v_pot, n_paths=args.paths, seed=args.seed,
                                   threads=_threads(args))
    fb = equilibrium.falk_bruch_bound(p)
    _emit(args, "equilibrium", _config_dict(args), {
        "potential": v_pot.name,
        "domination": {
            "h_values": dom.h_values.tolist(), "r_values": dom.r_values.tolist(),
            "r_errors": dom.r_errors.tolist(), "r_zero": dom.r_zero,
            "r_zero_error": dom.r_zero_error, "dominated": dom.dominated,
        },
        "mean_square_q": {"value": q2.value, "std_error": q2.std_error},
        "falk_bruch": {"b0": fb.b0, "c0": fb.c0, "g0": fb.g0,
                       "free_value": fb.free_value,
                       "bound_satisfied": q2.value <= fb.g0 + 4.0 * q2.std_error},
    })


def _cmd_verify(args) -> None:
    report = verify.run(seed=args.seed, quick=args.quick)
    _emit(args, "verify", _config_dict(args), report)
    if not report["passed"]:
        raise SystemExit(1)


# ---------------------------------------------------------------------------


class _ConfigDefaults(argparse.Action):
    """``--config FILE``: the file's keys become every subcommand's defaults.

    It runs before the subcommand is parsed (``--config`` precedes it), so
    explicit flags still win.
    """

    def __init__(self, option_strings, dest, subcommands, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.subcommands = subcommands

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            with open(path) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        for subparser in self.subcommands.choices.values():
            subparser.set_defaults(**defaults)
        setattr(namespace, self.dest, path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bogo",
                                     description="periodic Gaussian path measure toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.add_argument("--config", action=_ConfigDefaults, subcommands=sub,
                        help="JSON file with default option values")

    sp = sub.add_parser("kernel", help="covariance kernel and grid structures")
    _add_measure_flags(sp)
    sp.add_argument("--t", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--n-max", type=int, dest="n_max")
    sp.add_argument("--grid", type=int)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("oracle", help="closed-form functional integrals")
    _add_measure_flags(sp)
    sp.add_argument("--quantity", required=True,
                    choices=("wick", "det", "exp-quad", "moment", "exp-aq2",
                             "trace", "product"))
    sp.add_argument("--times", help="comma-separated evaluation times")
    sp.add_argument("--lambda", type=float, dest="lam", default=0.0)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--n-max", type=int, dest="n_max")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("sample", help="draw paths, dump CSV")
    _add_measure_flags(sp)
    sp.add_argument("--method", choices=("finite", "kl"), default="finite")
    sp.add_argument("--paths", type=int, default=10)
    sp.add_argument("--grid", type=int, default=sampler.DEFAULT_GRID)
    sp.add_argument("--modes", type=int, default=sampler.DEFAULT_MODES)
    sp.add_argument("--seed", type=int, required=True)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("estimate", help="Monte Carlo estimate of a functional")
    _add_measure_flags(sp)
    sp.add_argument("--method", choices=("finite", "kl"), default="finite")
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--grid", type=int, default=sampler.DEFAULT_GRID)
    sp.add_argument("--modes", type=int, default=sampler.DEFAULT_MODES)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--functional", required=True)
    sp.add_argument("--f-param", action="append", dest="f_param",
                    help="functional parameter key=value (repeatable)")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("quad", help="functional quadrature rules")
    _add_measure_flags(sp)
    sp.add_argument("--rule", choices=("thm1", "thm2", "thm3", "thm4"), required=True)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--A", type=float)
    sp.add_argument("--rho", choices=("cont", "disc"), default="cont")
    sp.add_argument("--bands", type=int, default=32)
    sp.add_argument("--modes", type=int, default=2000)
    sp.add_argument("--times", help="comma-separated monomial times")
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_quad)

    sp = sub.add_parser("qvar", help="quadratic-variation statistics")
    _add_measure_flags(sp)
    sp.add_argument("--n-list", dest="n_list", default="16,32,64")
    sp.add_argument("--paths", type=int, default=10_000)
    sp.add_argument("--seed", type=int, required=True)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_qvar)

    sp = sub.add_parser("fk", help="Feynman-Kac fundamental solution")
    _add_measure_flags(sp)
    sp.add_argument("--potential", default="zero",
                    choices=sorted(("zero", "constant", "quadratic", "quartic")))
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--g", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--beta-max", type=float, dest="beta_max", default=1.0)
    sp.add_argument("--n-beta", type=int, dest="n_beta", default=160)
    sp.add_argument("--n-xi", type=int, dest="n_xi", default=1025)
    sp.add_argument("--xi-max", type=float, dest="xi_max")
    sp.add_argument("--mc-paths", type=int, dest="mc_paths", default=0)
    sp.add_argument("--mc-xi", dest="mc_xi", default="0.0,0.5,1.0")
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--seed", type=int)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_fk)

    sp = sub.add_parser("equilibrium", help="Gaussian domination and Falk-Bruch")
    _add_measure_flags(sp)
    sp.add_argument("--potential", default="quartic",
                    choices=sorted(("zero", "constant", "quadratic", "quartic")))
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--g", type=float)
    sp.add_argument("--c", type=float)
    sp.add_argument("--h-list", dest="h_list", default="0.25,0.5,1.0")
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--seed", type=int, required=True)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_equilibrium)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    _add_io_flags(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ParameterError, kernel.DomainError) as exc:
        parser.error(str(exc))  # exits 2 with usage
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(json.dumps({
            "schema_version": SCHEMA_VERSION, "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
