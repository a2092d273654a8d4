"""Command-line interface: fit, simulate, test and qq subcommands."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .auxiliary import AuxiliaryInfo, estimate_phi, parse_subgroup_file
from .basis import CorrelationStructure, build_basis
from .errors import MalformedRow, QifauxError
from .estimator import ExtendedScoreConfig, FitOptions, fit, profile_test
from .io import (
    ColumnSchema,
    emit_qq,
    emit_report,
    load_dataset,
    split_sample,
    standardize_columns,
)
from .model import MarginalModelSpec
from .simulation import AuxMode, Hypothesis, parse_design_config, qq_data, run_monte_carlo


def _comma_list(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def _schema_from_args(args) -> ColumnSchema:
    covariates = tuple(_comma_list(args.covariate_cols))
    return ColumnSchema(args.id_col, args.time_col, args.response_col, covariates, args.q)


def _fit_options(args) -> FitOptions:
    return FitOptions(two_step=args.two_step, allow_empty_subgroups=args.allow_empty_subgroups)


def _parse_phi_file(path, n_groups, q):
    phis = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                phi = np.array([float(v) for v in line.split(",")])
            except ValueError as err:
                raise ValueError(f"--phi {path}: line {line_number}: {err}") from err
            if phi.shape != (q,):
                raise ValueError(
                    f"--phi {path}: line {line_number}: phi vector has "
                    f"{phi.size} entries, need q={q}"
                )
            if not np.isfinite(phi).all():
                raise ValueError(
                    f"--phi {path}: line {line_number}: phi vector {line!r} "
                    "has a non-finite entry"
                )
            phis.append(phi)
    if len(phis) != n_groups:
        raise ValueError(f"phi file defines {len(phis)} vectors for {n_groups} subgroups")
    return tuple(phis)


def _parse_aux_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_subgroup_file(text)
    except MalformedRow as err:
        raise ValueError(f"--aux {path}: {err}") from err


def _prepare(args):
    """Shared dataset/config assembly for the fit and test subcommands."""
    holdout = (args.phi or "").strip().lower() == "holdout"
    for flag, value in (("--analysis-size", args.analysis_size), ("--seed", args.seed)):
        if value is not None and not holdout:
            raise ValueError(f"{flag} requires --phi holdout")
    if args.standardize_response and not args.standardize:
        raise ValueError("--standardize-response requires --standardize")
    schema = _schema_from_args(args)
    loaded = load_dataset(args.data, schema)
    dataset = loaded.dataset
    notes = []
    if loaded.n_dropped:
        notes.append(f"dropped {loaded.n_dropped} incomplete subjects")
    if args.standardize:
        if args.standardize.strip().lower() == "all":
            columns = list(range(dataset.p))
        else:
            names = _comma_list(args.standardize)
            unknown = [c for c in names if c not in schema.covariates]
            if unknown:
                raise ValueError(
                    f"--standardize: unknown column(s) {', '.join(unknown)}; "
                    f"covariates are {', '.join(schema.covariates)}"
                )
            repeated = [c for k, c in enumerate(names) if c in names[:k]]
            if repeated:
                raise ValueError(f"--standardize: column {repeated[0]} is listed more than once")
            columns = [schema.covariates.index(c) for c in names]
        dataset, info = standardize_columns(
            dataset, columns, include_response=args.standardize_response
        )
        notes.append(
            "standardized (sample SD): "
            + ", ".join(
                f"{schema.covariates[j]}: mean={info.column_means[j]:.6g} sd={info.column_sds[j]:.6g}"
                for j in columns
            )
        )
        if args.standardize_response:
            notes.append(
                f"standardized response: mean={info.response_mean:.6g} sd={info.response_sd:.6g}"
            )
    spec = (
        MarginalModelSpec.gaussian()
        if args.link == "identity"
        else MarginalModelSpec.bernoulli()
    )
    basis = build_basis(CorrelationStructure.from_name(args.working), dataset.q)
    aux = None
    if args.phi and not args.aux:
        raise ValueError("--phi requires --aux (a subgroup definition file)")
    if args.aux:
        partition = _parse_aux_file(args.aux)
        if args.phi is None:
            raise ValueError("--aux requires --phi (a file or 'holdout')")
        if holdout:
            if args.analysis_size is None:
                raise ValueError("--phi holdout requires --analysis-size")
            dataset, held_out = split_sample(dataset, args.analysis_size, args.seed or 0)
            phis, counts = estimate_phi(held_out, partition)
            notes.append(
                "phi from holdout of "
                f"{held_out.n} subjects (group counts {counts.tolist()})"
            )
            aux = AuxiliaryInfo(partition, tuple(phis))
        else:
            phis = _parse_phi_file(args.phi, partition.n_groups, dataset.q)
            aux = AuxiliaryInfo(partition, phis)
    return dataset, ExtendedScoreConfig(spec, basis, aux), notes


def _write_output(text, args, notes=()):
    for note in notes:
        print(f"# {note}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_constraints(pairs, p):
    """0-based indices and values from 1-based INDEX=VALUE flags."""
    indices, values = [], []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"constraint must look like INDEX=VALUE, got {pair!r}")
        idx, _, val = pair.partition("=")
        try:
            index = int(idx)
        except ValueError as err:
            raise ValueError(f"--constrain {pair}: index {idx!r} is not an integer") from err
        if not 1 <= index <= p:
            raise ValueError(f"--constrain index {index} must lie in 1..{p}")
        try:
            values.append(float(val))
        except ValueError as err:
            raise ValueError(f"--constrain {pair}: value {val!r} is not a number") from err
        indices.append(index - 1)
    return tuple(indices), tuple(values)


def _cmd_fit(args) -> int:
    dataset, config, notes = _prepare(args)
    result = fit(config, dataset, options=_fit_options(args))
    name = "gmmai" if config.aux is not None else "qif"
    _write_output(emit_report({name: result}, args.format), args, notes)
    return 0


def _cmd_test(args) -> int:
    dataset, config, notes = _prepare(args)
    indices, values = _parse_constraints(args.constrain, dataset.p)
    outcome = profile_test(config, dataset, indices, values, options=_fit_options(args))
    lines = [
        f"statistic {outcome.statistic!r}",
        f"df {outcome.df}",
        f"p_value {outcome.p_value!r}",
        "beta_unrestricted " + ",".join(repr(float(v)) for v in outcome.beta_unrestricted),
        "beta_restricted " + ",".join(repr(float(v)) for v in outcome.beta_restricted),
    ]
    _write_output("\n".join(lines) + "\n", args, notes)
    return 0


def _default_methods(design):
    if design.aux_mode is AuxMode.FOUR_GROUP:
        return ["qif", "gmmai2", "gmmai4"]
    if design.aux_mode is AuxMode.TWO_GROUP:
        return ["qif", "gmmai2"]
    return ["qif"]


def _load_design(args):
    with open(args.config, "r", encoding="utf-8") as handle:
        design = parse_design_config(handle.read())
    if args.reps is not None:
        design = replace(design, replications=args.reps)
    if args.seed is not None:
        design = replace(design, seed=args.seed)
    return design


def _cmd_simulate(args) -> int:
    design = _load_design(args)
    methods = _comma_list(args.methods) if args.methods else _default_methods(design)
    summaries = run_monte_carlo(design, methods, options=_fit_options(args), n_jobs=args.jobs)
    _write_output(emit_report(summaries, args.format), args)
    return 0


def _cmd_qq(args) -> int:
    design = _load_design(args)
    indices, values = _parse_constraints(args.constrain, design.p)
    label = ",".join(f"beta{i + 1}={v:g}" for i, v in zip(indices, values))
    hypothesis = Hypothesis(label, indices, values)
    pairs = qq_data(design, hypothesis, args.method)
    _write_output(emit_qq(pairs), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # one parent parser per flag group, attached to the subcommands that read it
    output, report, solver, data, design, constraint = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    output.add_argument("--out", default=None, help="output file (default stdout)")
    report.add_argument("--format", choices=("table", "structured"), default="table")
    solver.add_argument("--two-step", action="store_true")
    solver.add_argument("--allow-empty-subgroups", action="store_true")
    data.add_argument("--data", required=True, help="long-format CSV file")
    data.add_argument("--id-col", default="id")
    data.add_argument("--time-col", default="time")
    data.add_argument("--response-col", default="y")
    data.add_argument(
        "--covariate-cols", default="x1,x2", help="comma-separated covariate columns"
    )
    data.add_argument("--q", type=int, default=None, help="observations per subject")
    data.add_argument("--link", choices=("identity", "logit"), default="identity")
    data.add_argument("--working", default="ind", help="ind, cs or ar1")
    data.add_argument("--aux", default=None, help="subgroup definition file")
    data.add_argument(
        "--phi",
        default=None,
        help="'holdout' to estimate targets from a held-out split, else a file "
        "with one comma-separated phi vector per subgroup",
    )
    data.add_argument(
        "--analysis-size", type=int, default=None,
        help="analysis subset size when --phi holdout is used",
    )
    data.add_argument(
        "--standardize", default=None,
        help="comma-separated covariate columns to standardize, or 'all'",
    )
    data.add_argument("--standardize-response", action="store_true")
    data.add_argument("--seed", type=int, default=None, help="--phi holdout split seed")
    design.add_argument("--config", required=True, help="key=value design file")
    design.add_argument("--reps", type=int, default=None)
    design.add_argument("--seed", type=int, default=None)
    constraint.add_argument(
        "--constrain", action="append", required=True, metavar="INDEX=VALUE",
        help="1-based coefficient index and null value; repeatable",
    )

    parser = argparse.ArgumentParser(
        prog="qifaux",
        description="Marginal-model estimation with working-correlation scores "
        "and subgroup auxiliary information",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "fit", parents=[data, solver, report, output],
        help="estimate coefficients from a data file",
    ).set_defaults(func=_cmd_fit)
    sub.add_parser(
        "test", parents=[data, solver, output, constraint],
        help="profile chi-square test on a data file",
    ).set_defaults(func=_cmd_test)

    p_sim = sub.add_parser(
        "simulate", parents=[design, solver, report, output],
        help="run a Monte Carlo study from a config",
    )
    p_sim.add_argument("--methods", default=None, help="comma list: qif,gmmai2,gmmai4")
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_qq = sub.add_parser(
        "qq", parents=[design, output, constraint],
        help="profile-statistic quantiles vs chi-square",
    )
    p_qq.add_argument("--method", default="qif")
    p_qq.set_defaults(func=_cmd_qq)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QifauxError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
