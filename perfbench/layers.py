"""Per-layer metrics of the traced run.

The traced operations already cover the layers on a workload's own path.
``probe_layers`` then times, on the workload's first input, the public
functions the operations do not call directly: the estimator kernels at
beta-hat, the starting value, the subgroup and dataset helpers, and any
io or simulation layer the workload does not use. Every per-layer metric
is the median of its spans, so each workload reports the full list.
"""

from __future__ import annotations

import statistics

import workloads as wl
from workloads import qa

# Calls per probed function; the median of these is reported.
PROBE_REPEATS = 9
# Monte Carlo studies replayed by the probe on workloads that do not run one.
# Their spans feed only simulation.run_monte_carlo.self_ms_per_rep, so the
# other layers are measured on the workload's own inputs.
MC_PROBE_ROUNDS = 2
MC_PROBE_OP = "probe-mc"

SPANS = (
    "estimator.profile_test",
    "estimator.initial_estimate",
    "simulation.generate_dataset",
    "io.load_dataset",
    "io.emit_report",
    "io.parse_structured_report",
    "auxiliary.group_indices",
    "auxiliary.estimate_phi",
    "model.LongitudinalDataset",
)
METHOD_SPANS = (
    "estimator.moment_vector",
    "estimator.score_jacobian",
    "estimator.objective",
    "estimator.fit",
)


def _own_inputs(span) -> bool:
    return not str(span["op"]).startswith(MC_PROBE_OP)


def _median_ms(tracer, name, **attrs) -> float:
    return statistics.median(tracer.durations_ms(name, where=_own_inputs, **attrs))


def probe_layers(workload, state, tracer, work_dir):
    """Time the layers the operations do not reach; returns (counts, problems)."""
    data, configs, design = workload.probe_inputs(state)
    tracer.op_id = "probe"
    counts, problems = {}, []
    for m, cfg in configs.items():
        with tracer.span("estimator.fit", method=m):
            result = qa.fit(cfg, data)
        problems += wl.fit_problems(f"probe {m}", result)
        counts[f"estimator.fit.iterations.{m}"] = result.iterations
        # Computed from array shapes: (n, d) contributions, (n, d, p) Jacobians.
        d = cfg.moment_dimension(data.p)
        counts[f"estimator.moments.bytes.{m}"] = data.n * d * 8
        counts[f"estimator.jacobian.bytes.{m}"] = data.n * d * data.p * 8
        for _ in range(PROBE_REPEATS):
            with tracer.span("estimator.moment_vector", method=m):
                qa.moment_vector(cfg, data, result.beta_hat)
            with tracer.span("estimator.score_jacobian", method=m):
                qa.score_jacobian(cfg, data, result.beta_hat)
            with tracer.span("estimator.objective", method=m):
                qa.objective(cfg, data, result.beta_hat)

    partition = configs["gmmai4"].aux.partition
    for r in range(PROBE_REPEATS):
        with tracer.span("estimator.initial_estimate"):
            qa.initial_estimate(configs["qif"], data)
        with tracer.span("auxiliary.group_indices"):
            partition.group_indices(data)
        with tracer.span("auxiliary.estimate_phi"):
            qa.estimate_phi(data, partition)
        with tracer.span("model.LongitudinalDataset"):
            qa.LongitudinalDataset(data.responses, data.covariates)
        with tracer.span("simulation.generate_dataset"):
            qa.generate_dataset(design, qa.replication_rng(design.seed, r, 0))

    if not tracer.durations_ms("io.load_dataset"):
        path = work_dir / "probe.csv"
        qa.write_dataset(data, path, wl.CSV_SCHEMA)
        for _ in range(PROBE_REPEATS):
            with tracer.span("io.load_dataset"):
                qa.load_dataset(path, wl.CSV_SCHEMA)
    if not tracer.durations_ms("io.emit_report"):
        fits = {m: qa.fit(cfg, data) for m, cfg in configs.items()}
        for _ in range(PROBE_REPEATS):
            with tracer.span("io.emit_report"):
                text = qa.emit_report(fits, "structured")
            with tracer.span("io.parse_structured_report"):
                parsed = qa.parse_structured_report(text)
        problems += wl.roundtrip_problems(fits, parsed)

    if not tracer.durations_ms("simulation.run_monte_carlo"):
        mc = wl.WORKLOADS["mc_paper"]
        mc_design = mc.design(state["ids"][0] % mc.universe)
        for j in range(MC_PROBE_ROUNDS):
            tracer.op_id = f"{MC_PROBE_OP}-{j}"
            with tracer.span("simulation.run_monte_carlo", reps=mc_design.replications):
                output = qa.run_monte_carlo(
                    mc_design, wl.METHODS, hypotheses=wl.HYPOTHESES, n_jobs=1
                )
            problems += mc.replay(mc_design, tracer, output)
    return counts, problems


def monte_carlo_self_ms_per_rep(tracer) -> float:
    """Median over studies of (run_monte_carlo - replay) / replications."""
    studies = {}
    for s in tracer.spans:
        if s["name"] in ("simulation.run_monte_carlo", "simulation.replay"):
            studies.setdefault(s["op"], {})[s["name"]] = s
    per_rep = [
        ((pair["simulation.run_monte_carlo"]["end"] - pair["simulation.run_monte_carlo"]["start"])
         - (pair["simulation.replay"]["end"] - pair["simulation.replay"]["start"]))
        * 1e3 / pair["simulation.replay"]["reps"]
        for pair in studies.values()
        if len(pair) == 2
    ]
    return statistics.median(per_rep)


def per_layer_metrics(tracer, counts, traced_ms, untraced_ms) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    out = {}
    for name in SPANS:
        out[f"{name}.ms"] = (_median_ms(tracer, name), "ms")
    for m in wl.METHODS:
        for name in METHOD_SPANS:
            out[f"{name}.ms.{m}"] = (_median_ms(tracer, name, method=m), "ms")
        out[f"estimator.weight_factor.ms.{m}"] = (
            out[f"estimator.objective.ms.{m}"][0] - out[f"estimator.moment_vector.ms.{m}"][0],
            "ms",
        )
        out[f"estimator.fit.iterations.{m}"] = (counts[f"estimator.fit.iterations.{m}"], "count")
        for kind in ("moments", "jacobian"):
            key = f"estimator.{kind}.bytes.{m}"
            out[key] = (counts[key], "B_computed")
    out["simulation.run_monte_carlo.self_ms_per_rep"] = (monte_carlo_self_ms_per_rep(tracer), "ms")
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0),
        "%",
    )
    return out
