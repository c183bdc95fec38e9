"""Per-layer metrics, computed from the call trees the tracer writes.

A pass is the traced run of one workload: the trees of one worker
process, or of every CLI child of a cli-cold round. Counts and times are
per operation of that pass (``/op``) unless the unit says otherwise.
Each metric names its home workload, the one whose end-to-end metrics it
should move. A traced run takes a metric from its own workload's pass
when that pass reaches the metric's layer, and otherwise from a short
pass of the home workload, so every traced run reports every metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean
from typing import Any, Callable, Iterable, Optional

CLI_COMMANDS = (
    "design-known",
    "design-unknown",
    "analyze",
    "analyze-seeded",
    "dunnett",
    "boundary",
    "reproduce-tables",
)


@dataclass
class Agg:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def add(self, node: dict[str, Any]) -> None:
        self.calls += node["calls"]
        self.total += node["total_s"]
        self.self_time += node["self_s"]
        for key, value in node["counters"].items():
            self.counters[key] = self.counters.get(key, 0.0) + value

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0.0)


def _walk(node: dict[str, Any]) -> Iterable[dict[str, Any]]:
    yield node
    for child in node["children"]:
        yield from _walk(child)


class Pass:
    """The merged trees of one traced pass."""

    def __init__(self, dumps: list[dict[str, Any]]) -> None:
        self.dumps = dumps
        self.ops = [n for d in dumps for n in d["tree"]["children"] if n["name"] == "op"]
        self.n_ops = sum(n["calls"] for n in self.ops)
        self.process = {
            key: fmean(d["process"][key] for d in dumps) for key in dumps[0]["process"]
        }

    def find(self, *names: str, under: Optional[str] = None) -> Agg:
        """Aggregate every span named one of ``names`` inside the timed
        operations, or only inside spans named ``under``."""
        agg = Agg()
        roots = self.ops
        if under is not None:
            roots = [n for op in self.ops for n in _walk(op) if n["name"] == under]
        for root in roots:
            for node in _walk(root):
                if node["name"] in names and node is not root:
                    agg.add(node)
        return agg

    def top(self, name: str) -> Agg:
        agg = Agg()
        for d in self.dumps:
            for node in d["tree"]["children"]:
                if node["name"] == name:
                    agg.add(node)
        return agg


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    home: str
    value: Callable[[Pass], Optional[float]]


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _per_op(*names: str, field: str = "calls") -> Callable[[Pass], Optional[float]]:
    def value(p: Pass) -> Optional[float]:
        agg = p.find(*names)
        if not agg.calls:
            return None
        return (agg.calls if field == "calls" else agg.total) / p.n_ops

    return value


def _calls_and_time(prefix: str, span: str, home: str) -> list[Metric]:
    return [
        Metric(f"{prefix}.calls", "calls/op", "lower", home, _per_op(span)),
        Metric(f"{prefix}.s", "s/op", "lower", home, _per_op(span, field="s")),
    ]


def _cli_command(command: str) -> Callable[[Pass], Optional[float]]:
    return lambda p: _ratio(p.find(f"cli.{command}").total, p.find(f"cli.{command}").calls)


def _cli_self(p: Pass) -> Optional[float]:
    spans = [f"cli.{c}" for c in CLI_COMMANDS]
    agg = p.find(*spans)
    return _ratio(agg.self_time, agg.calls)


def _cdf_evals(p: Pass) -> Optional[float]:
    quantile = "distributions.equicorr_max_quantile"
    cdfs = p.find("distributions.equicorr_max_cdf.normal", "distributions.equicorr_max_cdf.t", under=quantile)
    return _ratio(cdfs.calls, p.find(quantile).calls)


def _rule(field: str) -> Callable[[Pass], Optional[float]]:
    def value(p: Pass) -> Optional[float]:
        agg = p.find("quad.legendre_rule")
        if not agg.calls:
            return None
        return (agg.calls if field == "calls" else agg.counter("nodes")) / p.n_ops

    return value


def _accepted_share(p: Pass) -> Optional[float]:
    agg = p.find("quad.refine", "quad.refine_vector")
    return _ratio(agg.counter("accepted_nodes"), agg.counter("evaluated_nodes"))


def _adaptive_calls(p: Pass) -> Optional[float]:
    if not p.find("quad.gamma_sqrt_expect").calls:
        return None
    return p.find("quad._adaptive_quad").calls / p.n_ops


def _kernel_rows(p: Pass) -> Optional[float]:
    agg = p.find("posterior._joint_below_given_control")
    return _ratio(agg.counter("rows"), agg.calls)


def _boundary_kernel_calls(p: Pass) -> Optional[float]:
    curve = "design_known.boundary_curve"
    kernel = p.find("posterior._joint_below_given_control", under=curve)
    return _ratio(kernel.calls, p.find(curve).counter("points"))


def _fixed_point_iters(p: Pass) -> Optional[float]:
    design = "design_unknown.assured_design"
    targets = p.find("design_unknown.assured_information_target", under=design)
    return _ratio(targets.calls, p.find(design).calls)


def _pvalue_nodes(p: Pass) -> Optional[float]:
    pvalue = "dunnett.dunnett_pvalue"
    rules = p.find("quad.legendre_rule", under=pvalue)
    return _ratio(rules.counter("nodes"), p.find(pvalue).calls)


def _guarantee(field: str) -> Callable[[Pass], Optional[float]]:
    span = "montecarlo.design_guarantee"

    def value(p: Pass) -> Optional[float]:
        agg = p.find(span)
        if not agg.calls:
            return None
        if field == "points":
            rows = p.find("posterior._joint_below_given_control", under=span)
            return rows.counter("rows") / agg.calls
        return (agg.total if field == "s" else agg.self_time) / p.n_ops

    return value


def _draws_per_s(p: Pass) -> Optional[float]:
    agg = p.find("montecarlo.posterior_probs")
    return _ratio(agg.counter("draws"), agg.total)


def _process(key: str) -> Callable[[Pass], Optional[float]]:
    return lambda p: p.process[key]


SWEEP, AUDIT, STREAM, CLI = "design-sweep", "design-audit", "analysis-stream", "cli-cold"

METRICS: list[Metric] = [
    Metric("cli.import_s", "s", "lower", CLI, lambda p: _ratio(p.top("cli.import").total, p.top("cli.import").calls)),
    *[Metric(f"cli.{c}_s", "s", "lower", CLI, _cli_command(c)) for c in CLI_COMMANDS],
    Metric("cli.self_s", "s", "lower", CLI, _cli_self),
    *_calls_and_time("distributions.max_cdf", "distributions.equicorr_max_cdf.normal", SWEEP),
    *_calls_and_time("distributions.max_cdf_t", "distributions.equicorr_max_cdf.t", SWEEP),
    *_calls_and_time("distributions.max_quantile", "distributions.equicorr_max_quantile", SWEEP),
    Metric("distributions.max_quantile.cdf_evals", "evals/call", "lower", SWEEP, _cdf_evals),
    Metric("quad.rule.calls", "calls/op", "lower", AUDIT, _rule("calls")),
    Metric("quad.rule.nodes", "nodes/op", "lower", AUDIT, _rule("nodes")),
    Metric("quad.refine.calls", "calls/op", "lower", AUDIT, _per_op("quad.refine", "quad.refine_vector")),
    Metric("quad.refine.accepted_node_share", "share", "higher", AUDIT, _accepted_share),
    *_calls_and_time("quad.gamma_mix", "quad.gamma_sqrt_expect", SWEEP),
    Metric("quad.gamma_mix.adaptive_calls", "calls/op", "lower", SWEEP, _adaptive_calls),
    Metric("quad.node_cache.misses", "count", "lower", "", _process("node_cache_misses")),
    Metric("quad.node_build_s", "s", "lower", "", _process("node_build_s")),
    *_calls_and_time("posterior.decide.known", "posterior.decide.known", STREAM),
    *_calls_and_time("posterior.decide.per_arm", "posterior.decide.per_arm", STREAM),
    *_calls_and_time("posterior.decide.gamma", "posterior.decide.gamma", STREAM),
    Metric("posterior.prob_all_below.calls", "calls/op", "lower", STREAM, _per_op("posterior.prob_all_below")),
    *_calls_and_time("posterior.kernel", "posterior._joint_below_given_control", AUDIT),
    Metric("posterior.kernel.rows", "rows/call", "higher", AUDIT, _kernel_rows),
    Metric("design_known.optimal_design.s", "s/op", "lower", SWEEP,
           _per_op("design_known.optimal_design", field="s")),
    Metric("design_known.information_target.s", "s/op", "lower", SWEEP,
           _per_op("design_known.information_target", field="s")),
    Metric("design_known.boundary_curve.s", "s/op", "lower", SWEEP,
           _per_op("design_known.boundary_curve", field="s")),
    Metric("design_known.boundary_curve.kernel_calls", "calls/point", "lower", SWEEP, _boundary_kernel_calls),
    *_calls_and_time("design_unknown.assured_design", "design_unknown.assured_design", SWEEP),
    Metric("design_unknown.fixed_point.iters", "evals/design", "lower", SWEEP, _fixed_point_iters),
    Metric("design_unknown.assured_criterion_met.s", "s/op", "lower", CLI,
           _per_op("design_unknown.assured_criterion_met", field="s")),
    *_calls_and_time("dunnett.pvalue", "dunnett.dunnett_pvalue", STREAM),
    Metric("dunnett.pvalue.nodes", "nodes/call", "lower", STREAM, _pvalue_nodes),
    Metric("dunnett.design.s", "s/op", "lower", SWEEP, _per_op("dunnett.dunnett_design", field="s")),
    Metric("montecarlo.guarantee.s", "s/op", "lower", AUDIT, _guarantee("s")),
    Metric("montecarlo.guarantee.self_s", "s/op", "lower", AUDIT, _guarantee("self")),
    Metric("montecarlo.guarantee.points", "rows/call", "higher", AUDIT, _guarantee("points")),
    Metric("montecarlo.posterior_probs.s", "s/op", "lower", CLI,
           _per_op("montecarlo.posterior_probs", field="s")),
    Metric("montecarlo.draws_per_s", "1/s", "higher", CLI, _draws_per_s),
    *_calls_and_time("model.construct", "model.construct", STREAM),
]


def homes_needed(own: Pass) -> set[str]:
    """Home workloads of the metrics the own pass does not reach."""
    return {m.home for m in METRICS if m.home and m.value(own) is None}


def layer_metrics(own: Pass, covers: dict[str, Pass]) -> dict[str, dict[str, Any]]:
    out = {}
    for m in METRICS:
        value = m.value(own)
        if value is None:
            value = m.value(covers[m.home])
        if value is None:
            raise RuntimeError(f"per-layer metric {m.name} not reached by its home workload {m.home}")
        out[m.name] = {"value": value, "unit": m.unit}
    return out
