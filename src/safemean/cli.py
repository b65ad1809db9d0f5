"""Command-line interface: estimate on sample files, run Monte Carlo
experiments, validate the dual solver, and fit decay rates; it owns every
output format (JSON, the CSV of trial reports, the variance-ratio table).

Exit codes: 0 success, 1 validation failure, 2 usage/input error, 3 numeric
failure. Output artifacts embed the tool version, the resolved configuration,
and the master seed, and are byte-identical across reruns; wall-clock timing
goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, astuple, fields
from functools import partial
from typing import Sequence

from . import __version__
from .core import (
    SCHEDULE_KINDS,
    LogNormal,
    Pareto,
    SampleFileError,
    ScaledBernoulli,
    UniformBounded,
    read_sample_file,
)
from .dual import DualSolverError
from .estimators import ESTIMATOR_KINDS, EstimatorConfig, estimate
from .montecarlo import TrialReport, conservatism_probability, disappointment_probability
from .oracle import random_instances, verify_certificate
from .rates import cramer_rate, rate_fit, variance_ratio_curve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
CSV_HEADER = ",".join(f.name.removesuffix("_id") for f in fields(TrialReport))
# the flags each rates mode reads beside --out; the mode needs each of them but --axis, which rate_fit defaults
_RATES_READS = {"from_csv": ("axis",), "variance_ratio": ("dist", "r_grid"), "cramer": ("dist", "b")}


class UsageError(ValueError):
    pass


# the --dist grammar, pareto:rho:xm | lognormal:mu:sigma | bern:p:high | point:c | uniform:lo:hi: each law's
# constructor and the parameter counts it takes; point:c, the point mass at c, is bern:1:c
_DISTRIBUTIONS = {"pareto": (Pareto, (2,)), "lognormal": (LogNormal, (2,)), "bern": (ScaledBernoulli, (2,)),
                  "bernoulli": (ScaledBernoulli, (2,)), "point": (lambda c: ScaledBernoulli(1.0, c), (1,)),
                  "uniform": (UniformBounded, (2,))}


def _read_spelling(text: str, grammar: str, spellings):
    """The value of a name:p1:p2 spelling by its row in spellings, which starts with a constructor and the
    parameter counts it takes; any failure is a UsageError that names the grammar and quotes the text."""
    name, *params = text.split(":")
    make, counts = spellings.get(name.lower(), (None, ()))[:2]
    if len(params) not in counts:
        raise UsageError(f"cannot parse {grammar} {text!r}")
    try:
        return make(*map(float, params))
    except ValueError as exc:
        raise UsageError(f"invalid {grammar} {text!r}: {exc}") from None


def _read_list(text: str, flag: str, item, what: str, least=-math.inf) -> list:
    """A flag's comma list, each item read by item (int or float), empty ones skipped; no item, or one that
    item cannot read or that is below least, is a UsageError that names the flag and quotes the text."""
    try:
        values = [item(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values or min(values) < least:
        raise UsageError(f"{flag} must be a comma-separated list of {what}, not {text!r}")
    return values


parse_distribution = partial(_read_spelling, grammar="distribution", spellings=_DISTRIBUTIONS)
# logn[:<c>] | loglogn[:<c>] | power:<c>:<beta>, by core.SCHEDULE_KINDS; a constant exponent is --lambda
parse_schedule = partial(_read_spelling, grammar="schedule", spellings=SCHEDULE_KINDS)


def _build_config(args) -> EstimatorConfig:
    """The estimator the flags name; EstimatorConfig's ValueError is the usage error."""
    schedule = None if args.lambda_schedule is None else parse_schedule(args.lambda_schedule)
    return EstimatorConfig(args.estimator, args.delta, args.r, args.lam, schedule, args.a, args.A)


def _fmt(x) -> str:
    """A number or CSV cell as written: a float to 17 significant digits, None empty, anything else by str."""
    if x is None:
        return ""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def reports_to_csv(reports: Sequence[TrialReport], header_lines: Sequence[str] = ()) -> str:
    """CSV document with optional '#' metadata lines, one row per report in TrialReport's field order;
    deterministic given inputs."""
    lines = [f"# {text}" for text in header_lines]
    lines.append(CSV_HEADER)
    lines += [",".join(map(_fmt, astuple(rep))) for rep in reports]
    return "\n".join(lines) + "\n"


def _json(doc, indent=None) -> str:
    """doc as strict JSON with sorted keys, the encoding of every JSON artifact: JSON has no inf or nan,
    so a non-finite number (alpha_star at r = 0, the Cramer rate of an impossible event) is null."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)  # floats round-trip through their repr
    return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)


def _emit(artifact, out=None, indent=None) -> None:
    """Write an artifact to the file out, or to stdout when out is not given: text as it is, or a JSON
    document with the tool version added, by _json."""
    if isinstance(artifact, dict):
        artifact = _json({**artifact, "version": __version__}, indent) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    else:
        sys.stdout.write(artifact)


def cmd_estimate(args) -> int:
    try:
        sample = read_sample_file(args.input)
    except SampleFileError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = estimate(_build_config(args), sample)
    diagnostics = {k: float(v) for k, v in result.diagnostics.items()}
    _emit({"estimator": result.estimator_id, "value": float(result.value), "n": sample.n, "diagnostics": diagnostics})
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = parse_distribution(args.dist)
    cfg = _build_config(args)
    n_grid = _read_list(args.n, "--n", int, "positive integers", 1)
    if (args.event == "conservatism") != (args.b is not None):
        raise UsageError(f"--event {args.event} {'requires' if args.b is None else 'does not take'} --b")
    t0 = time.perf_counter()
    reports = [
        disappointment_probability(spec, cfg, n, args.trials, args.seed, threads=args.threads)
        if args.event == "disappointment"
        else conservatism_probability(spec, cfg, args.b, n, args.trials, args.seed, threads=args.threads)
        for n in n_grid
    ]
    # every flag that shapes the rows: an EstimatorConfig field as the run resolved it (None where the
    # kind reads none), --n as its list; --threads and --out change no row
    resolved = asdict(cfg)
    config_doc = {
        ("lambda" if name == "lam" else name): resolved.get(name, value)
        for name, value in vars(args).items()
        if name not in ("command", "func", "threads", "out")
    }
    config_doc["n"] = n_grid
    header = [
        f"safemean {__version__}",
        "config: " + _json(config_doc),
        f"seed: {args.seed}",
    ]
    _emit(reports_to_csv(reports, header), args.out)
    print(f"simulate: {len(reports)} cells in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.instances < 1:
        raise UsageError("--instances must be >= 1")
    if args.probes < 1:
        raise UsageError("--probes must be >= 1")
    t0 = time.perf_counter()
    worst_kl = worst_gap = worst_value_gap = 0.0
    total_violations = 0
    failures = 0
    for i, (sample, r) in enumerate(random_instances(args.instances, args.seed)):
        check_radius = 1.5 * r if args.inject_radius_mismatch else None
        report = verify_certificate(sample, r, probes=args.probes, seed=args.seed + i, check_radius=check_radius)
        worst_kl = max(worst_kl, report.kl_gap)
        worst_gap = max(worst_gap, report.duality_gap / max(1.0, abs(report.value)))
        if report.scaled_duality_gap > 0.0:  # the ratio CertificateReport.passed bounds, in its scale
            gap, value = report.scaled_duality_gap, abs(report.scaled_value)
            worst_value_gap = max(worst_value_gap, gap / value if value else math.inf)
        total_violations += report.probe_violations
        if not report.passed:
            failures += 1
    print(
        f"validate: {args.instances} instances, {failures} failures, "
        f"max kl gap {_fmt(worst_kl)}, max relative duality gap {_fmt(worst_gap)}, "
        f"probe violations {total_violations}, max duality gap / |value| {_fmt(worst_value_gap)}"
    )
    print(f"validate: done in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def _read_points_csv(path):
    points, header, n_idx, p_idx = [], None, 0, 1
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None and not points and any(not _is_float(c) for c in cells):  # a header comes first
                header = cells
                if "n" in header and "p_hat" in header:
                    n_idx, p_idx = header.index("n"), header.index("p_hat")
                continue
            try:
                point = float(cells[n_idx]), float(cells[p_idx])
            except (IndexError, ValueError):
                raise UsageError(f"{path}: line {i}: needs numbers in columns {n_idx + 1} and {p_idx + 1}") from None
            if not all(map(math.isfinite, point)):
                raise UsageError(f"{path}: line {i}: needs finite numbers in columns {n_idx + 1} and {p_idx + 1}")
            if point[0] < 1:
                raise UsageError(f"{path}: line {i}: n must be >= 1, not {cells[n_idx]}")
            points.append(point)
    return points


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _flag(dest: str) -> str:
    """The flag whose value argparse stores under dest."""
    return "--" + dest.replace("_", "-")


def cmd_rates(args) -> int:
    mode, reads = next((m, r) for m, r in _RATES_READS.items() if getattr(args, m) not in (None, False))
    given = dict.fromkeys(name for flags in _RATES_READS.values() for name in flags if getattr(args, name) is not None)
    unread = [_flag(name) for name in given if name not in reads]
    if unread:
        raise UsageError(f"rates {_flag(mode)} does not take {', '.join(unread)}")
    if any(name not in given for name in reads if name != "axis"):
        raise UsageError(f"{_flag(mode)} requires {' and '.join(map(_flag, reads))}")
    if args.variance_ratio:
        spec = parse_distribution(args.dist)
        curve = variance_ratio_curve(spec, _read_list(args.r_grid, "--r-grid", float, "radii"))
        lines = [f"# safemean {__version__}", f"# dist: {args.dist}", "r,ratio"]
        lines += [f"{_fmt(r)},{_fmt(ratio)}" for r, ratio in curve]
        _emit("\n".join(lines) + "\n", args.out)
    elif args.cramer:
        _emit({"b": args.b, "dist": args.dist, "rate": cramer_rate(parse_distribution(args.dist), args.b)}, args.out)
    else:
        fit = rate_fit(_read_points_csv(args.from_csv), **({"axis": args.axis} if args.axis else {}))
        _emit(asdict(fit), args.out, indent=2)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safemean", description=__doc__)
    parser.add_argument("--version", action="version", version=f"safemean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_estimator_flags(p):
        """The flags _build_config reads, the same for estimate and simulate."""
        p.add_argument("--estimator", required=True, choices=ESTIMATOR_KINDS)
        p.add_argument("--delta", type=float, default=None, help="mean only: tolerance subtracted (default 0)")
        p.add_argument("--a", type=float, default=None, help="trunc only: moment exponent in (1, 2] (default 2)")
        p.add_argument("--A", type=float, default=None, help="trunc only: moment bound E[z^a] <= A (default 1)")
        p.add_argument("--r", type=float, default=None, help="fixed KL/W radius")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="fixed exponent lambda")
        p.add_argument("--lambda-schedule", default=None, help="schedule logn[:<c>] | loglogn[:<c>] | power:<c>:<beta>")

    p_est = sub.add_parser("estimate", help="run one estimator on a sample file")
    p_est.add_argument("--input", required=True, help="sample file, one value per line")
    add_estimator_flags(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo disappointment/conservatism experiment")
    p_sim.add_argument("--dist", required=True)
    p_sim.add_argument("--n", required=True, help="comma-separated sample sizes")
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--event", choices=("disappointment", "conservatism"), default="disappointment")
    p_sim.add_argument("--b", type=float, default=None)
    p_sim.add_argument("--threads", type=int, default=None, help="worker threads (default: usable cores)")
    p_sim.add_argument("--out", default=None)
    add_estimator_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="dual-solver certificate suite")
    p_val.add_argument("--instances", type=int, required=True)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--probes", type=int, default=1000)
    p_val.add_argument(
        "--inject-radius-mismatch",
        action="store_true",
        help="negative control: verify against a wrong radius, must fail",
    )
    p_val.set_defaults(func=cmd_validate)

    p_rat = sub.add_parser("rates", help="decay-rate fits, large-deviation rates, variance-ratio curves")
    mode = p_rat.add_mutually_exclusive_group(required=True)
    mode.add_argument("--from-csv", default=None)
    mode.add_argument("--variance-ratio", action="store_true")
    mode.add_argument("--cramer", action="store_true")
    p_rat.add_argument("--axis", choices=("log-log", "log-linear"), help="--from-csv only (default log-log)")
    p_rat.add_argument("--dist", default=None)
    p_rat.add_argument("--r-grid", default=None)
    p_rat.add_argument("--b", type=float, default=None)
    p_rat.add_argument("--out", default=None)
    p_rat.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DualSolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
