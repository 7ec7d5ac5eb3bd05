"""Experiment orchestration: sampling runs, bootstrap runs, the reference law,
the self-verification suite, and the CSV/JSON/SVG writers.

Every random consumer owns a substream derived from (master_seed, path), and
blocks and time chunks have sizes fixed by the config, so any output file is a
pure function of the config. Aggregation is always in unit-index order and
floats are serialized through repr, which keeps reruns byte-identical. The
runners share no state, so the CLI may run two of them in separate processes
(compare's sampling and bootstrap, under --threads >= 2) without a byte changing.

Each runner is one loop over `oja.advance` on blocks of rows, whose rows are
right only up to a power-of-two scale until `oja.unit_rows` divides them by their
norms, once, at the end of the pass. Sampling moves blocks of up to 128 trials
through time chunks whose coordinates fill one buffer. The bootstrap loops over
time: each 256-step chunk of its one dataset is drawn once and moves v_hat and
then every replicate block, so its memory is O((chunk + replicates) d), not O(n d).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bootstrap, hoeffding, linalg, model, oja, randgen, reference, stats

# The row caps bound temporaries and draw calls at very large counts. As a multiple of
# 4, _BLOCK keeps OpenBLAS's 4-row matrix-vector grouping, so no replicate's rounding
# depends on where blocks end. A bootstrap chunk draws its data rows once and one
# multiplier row per replicate. A sampling chunk takes one uniform draw per trial into
# one buffer of _SAMPLING_FLOATS coordinates (1.25 MiB; 12 steps per draw at d = 100).
# Its per-step (rows, d) @ (d, d) product rounds a row by where its block starts (at
# d = 100, blocks of 64 or 100 trials move one by 9e-14), so _SAMPLING_BLOCK is part
# of what defines the output.
_BLOCK = 512
_BOOTSTRAP_STEPS = 256
_SAMPLING_BLOCK = 128
_SAMPLING_FLOATS = 160 * 1024
# SVG polylines thin to this many jumps; CSVs always keep every sample
_SVG_MAX_JUMPS = 1024

_SUMMARY_KEYS = ("config_echo", "ks", "trace_vbar", "frob_vbar",
                 "weights_top10", "quantiles", "checks")


class ConfigError(ValueError):
    """Invalid experiment configuration; the CLI maps this to exit code 2."""


_INT_FIELDS = ("n", "d", "trials", "replicates", "mc_m_estimate", "mc_chisq", "master_seed")
_REAL_FIELDS = ("beta", "c", "scale")


def _require_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 5000
    d: int = 100
    beta: float = 1.0
    c: float = 0.01
    scale: float = 5.0
    trials: int = 300
    replicates: int = 300
    eta_rule: str = "log_n"
    eta_value: float | None = None
    master_seed: int = 0
    mc_m_estimate: int = 10**5  # validated and echoed; the moment matrix is exact
    mc_chisq: int = 10**5
    output_dir: str = "out"

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            _require_finite(name, getattr(self, name))
        if self.n < 2 or self.d < 2:
            raise ConfigError("need n >= 2 and d >= 2")
        if self.trials < 1 or self.replicates < 1:
            raise ConfigError("need trials >= 1 and replicates >= 1")
        if self.mc_m_estimate < 1 or self.mc_chisq < 1:
            raise ConfigError("Monte Carlo sizes must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in 64 bits")
        if self.eta_rule == "log_n":
            if self.eta_value is not None:
                raise ConfigError("log_n rule takes no value")
        elif self.eta_rule == "fixed":
            _require_finite("eta_rule.fixed", self.eta_value)
            if not self.eta_value > 0:
                raise ConfigError("fixed eta rule needs a positive value")
        else:
            raise ConfigError(f"unknown eta_rule {self.eta_rule!r}")
        if self.scale <= 0 or self.c < 0:
            raise ConfigError("need scale > 0 and c >= 0")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")

    @property
    def eta_n(self) -> float:
        if self.eta_rule == "log_n":
            return float(np.log(self.n))
        return float(self.eta_value)

    def spectral_model(self, d: int | None = None) -> model.SpectralModel:
        """The kernel model, on d coordinates instead of the config's if given."""
        return model.spectral_decompose(model.KernelSpec(
            d=self.d if d is None else d, c=self.c, beta=self.beta, scale=self.scale))

    def stream(self, *path) -> randgen.RngStream:
        return randgen.derive_stream(self.master_seed, path)

    def echo(self) -> dict:
        """The config file's keys; a fixed eta_value is written inside eta_rule."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "eta_value"}
        if self.eta_rule == "fixed":
            out["eta_rule"] = {"fixed": float(self.eta_value)}
        return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)} - {"eta_value"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(raw)
    rule = kwargs.pop("eta_rule", "log_n")
    if isinstance(rule, str):
        kwargs["eta_rule"], kwargs["eta_value"] = rule, None
    elif isinstance(rule, dict) and set(rule) == {"fixed"}:
        kwargs["eta_rule"], kwargs["eta_value"] = "fixed", rule["fixed"]
    else:
        raise ConfigError("eta_rule must be \"log_n\" or {\"fixed\": value}")
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path=None, seed=None, out=None) -> ExperimentConfig:
    """Read a JSON config file and apply CLI overrides for seed and output dir."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
    if seed is not None:
        raw = {**raw, "master_seed": seed}
    if out is not None:
        raw = {**raw, "output_dir": str(out)}
    return config_from_dict(raw)


def draw_u0(config: ExperimentConfig) -> np.ndarray:
    return oja.normalize(config.stream("u0").normal(0.0, 1.0, config.d))


def _unit_rows(w, config: ExperimentConfig) -> np.ndarray:
    """oja.unit_rows at the end of a pass; a pass that left the finite range is a
    step size too large for the data."""
    try:
        return oja.unit_rows(w)
    except ValueError as exc:
        raise ConfigError(f"{exc} (eta_n = {config.eta_n!r} is too large)") from exc


def run_sampling_experiment(config: ExperimentConfig) -> dict:
    """Fixed u0, `trials` fresh datasets, one Oja pass each; errors vs true v1.
    A trial draws its rows chunk by chunk from its own ("trial", j) stream,
    the same uniform coordinates as one bulk draw. Its iterate is rescaled only
    by powers of two during the pass and normalized once, at the end."""
    mdl = config.spectral_model()
    u0 = draw_u0(config)
    eta = config.eta_n / config.n
    buf = np.empty(max(_SAMPLING_FLOATS, min(config.trials, _SAMPLING_BLOCK) * config.d))
    blocks = []
    for first in range(0, config.trials, _SAMPLING_BLOCK):
        streams = [config.stream("trial", j)
                   for j in range(first, min(first + _SAMPLING_BLOCK, config.trials))]
        w = oja.start(u0, len(streams))
        step = max(1, _SAMPLING_FLOATS // (len(streams) * config.d))
        for lo in range(0, config.n, step):
            shape = (len(streams), min(step, config.n - lo), config.d)
            z = model.sample_paths(mdl, streams, buf[:math.prod(shape)].reshape(shape))
            w = oja.advance(w, z, eta, root=mdl.sqrt_sigma)
        blocks.append(w)
    errors = np.array([oja.sin2(row, mdl.v1) for row in _unit_rows(np.vstack(blocks), config)])
    scaled = (config.n / config.eta_n) * errors
    return {
        "cdf": stats.ecdf(errors),
        "samples": errors,
        "scaled_samples": scaled,
        "scaled_cdf": stats.ecdf(scaled),
        "mean": float(errors.mean()),
        "median": float(np.median(errors)),
        "u0": u0,
    }


def run_bootstrap_experiment(config: ExperimentConfig) -> dict:
    """One dataset, m multiplier-perturbed replicate chains, errors vs the
    unperturbed estimate. The dataset streams from ("data", 0) one chunk at a
    time; each chunk moves v_hat and then every replicate block, and is never
    read again. Replicate i draws its multipliers from its own ("w", i) stream.
    v_hat and the replicates are rescaled only by powers of two during the pass
    and normalized once, at the end."""
    mdl = config.spectral_model()
    u0 = draw_u0(config)
    eta = config.eta_n / config.n
    data = config.stream("data", 0)
    v_hat = oja.start(u0, 1)
    streams = [[config.stream("w", i)
                for i in range(first, min(first + _BLOCK, config.replicates))]
               for first in range(0, config.replicates, _BLOCK)]
    blocks = [oja.start(u0, len(block)) for block in streams]
    prev = None
    for lo in range(0, config.n, _BOOTSTRAP_STEPS):
        hi = min(lo + _BOOTSTRAP_STEPS, config.n)
        x = model.sample_x(mdl, data, hi - lo)
        v_hat = oja.advance(v_hat, x, eta)
        blocks = [oja.advance(w, x, eta, bootstrap.draw_multipliers(block, lo, hi), prev)
                  for w, block in zip(blocks, streams)]
        prev = x[-1]
    v_hat = _unit_rows(v_hat, config)[0]
    errors = np.clip(1.0 - (_unit_rows(np.vstack(blocks), config) @ v_hat) ** 2, 0.0, 1.0)
    cdf = stats.ecdf(errors)
    return {
        "cdf": cdf,
        "errors": errors,
        "v_hat": v_hat,
        "quantiles": {f"q{p}": cdf.quantile(p) for p in (0.9, 0.95, 0.99)},
        "u0": u0,
    }


def run_reference(config: ExperimentConfig) -> dict:
    """Assemble the reference covariance and sample its weighted chi-square law.

    The draws are on the scale of (n/eta_n) * sin2, the units the limit law
    is stated in.
    """
    vbar = reference.build_reference(config.spectral_model(), config.eta_n, config.n)
    weights = reference.chisq_weights(vbar)
    samples = reference.sample_weighted_chisq(weights, config.stream("mc", "chisq"),
                                              config.mc_chisq)
    cdf = stats.ecdf(samples)
    return {
        "vbar": vbar,
        "weights": weights,
        "samples": samples,
        "cdf": cdf,
        "quantiles": {f"q{p}": cdf.quantile(p) for p in (0.9, 0.95, 0.99)},
    }


# -- verification suite ------------------------------------------------------

def _check_hoeffding(config: ExperimentConfig, with_multipliers: bool) -> dict:
    worst = 0.0
    case = 0
    for n in (4, 6):
        for d in (2, 3):
            mdl = config.spectral_model(d)
            for eta in (1.0, float(np.log(n))):
                st = config.stream("verify", "hoeffding", case)
                data = model.sample_x(mdl, st, n)
                if with_multipliers:
                    w = np.concatenate([[0.0], st.normal(0.0, 0.5, n - 1)])
                    total, _ = hoeffding.hoeffding_sum(data, eta, weights=w)
                    direct = hoeffding.direct_product(data, eta, weights=w)
                else:
                    # The subset terms can cancel by a factor of ~4e6 here, enough for
                    # float64 roundoff alone to cross the bound; evaluate exactly.
                    total, _ = hoeffding.hoeffding_sum(data, eta, sigma=mdl.sigma, exact=True)
                    direct = hoeffding.direct_product(data, eta, exact=True)
                err = (linalg.frobenius_norm(total - direct)
                       / max(1.0, linalg.frobenius_norm(direct)))
                worst = max(worst, err)
                case += 1
    name = "bootstrap_hoeffding_exactness" if with_multipliers else "hoeffding_exactness"
    return {"name": name, "value": worst, "bound": 1e-10, "passed": bool(worst <= 1e-10)}


def _check_orthogonality(config: ExperimentConfig) -> dict:
    # lopsided two-point mean-zero law so the centered factor does not vanish
    sup = np.array([[1.2, 0.5], [-0.6, -0.25]])
    spec = model.DiscreteSpec(sup, np.array([1 / 3, 2 / 3]))
    worst = hoeffding.orthogonality_table(spec, n=4, eta_n=1.0)
    return {"name": "orthogonality", "value": worst, "bound": 1e-10,
            "passed": bool(worst <= 1e-10)}


def _check_chisq_moments(draws, weights: reference.WeightedChiSq) -> dict:
    se_mean = np.sqrt(weights.variance / draws.size)
    mean_dev = abs(draws.mean() - weights.mean) / max(se_mean, 1e-300)
    m4 = float(np.mean((draws - draws.mean()) ** 4))
    se_var = np.sqrt(max(m4 - draws.var() ** 2, 1e-300) / draws.size)
    var_dev = abs(draws.var() - weights.variance) / se_var
    passed = mean_dev <= 4.0 and var_dev <= 5.0
    return {"name": "chisq_moments",
            "value": {"mean_sigmas": float(mean_dev), "var_sigmas": float(var_dev)},
            "bound": {"mean_sigmas": 4.0, "var_sigmas": 5.0}, "passed": bool(passed)}


def _check_anticoncentration(draws) -> dict:
    out = reference.anticoncentration_check(draws, 0.01)
    return {"name": "anticoncentration", "value": out["max_window_prob"],
            "bound": out["bound"], "passed": bool(out["pass"])}


def _check_covariance_rate(config: ExperimentConfig) -> dict:
    mdl = config.spectral_model(min(config.d, 10))
    medians = {}
    for n in (500, 2000):
        eta = float(np.log(n))
        vbar = reference.build_reference(mdl, eta, n)
        diffs = []
        for j in range(21):
            data = model.sample_x(mdl, config.stream("verify", "rate", n, j), n)
            cov = bootstrap.bootstrap_covariance(data, mdl, eta)
            diffs.append(abs(float(np.trace(cov - vbar))))
        medians[n] = float(np.median(diffs))
    ratio = medians[500] / max(medians[2000], 1e-300)
    return {"name": "covariance_rate", "value": ratio, "bound": [1.3, 5.0],
            "passed": bool(1.3 <= ratio <= 5.0)}


def _check_vbar_closed_form(config: ExperimentConfig) -> dict:
    mdl = config.spectral_model(10)
    n, eta = 1000, float(np.log(1000))
    raw = config.stream("verify", "vbar").normal(0.0, 1.0, (9, 9))
    m = raw @ raw.T
    lp = reference.contraction_ratios(mdl, eta, n)
    closed = reference.assemble_vbar(m, lp, eta, n, mdl.v_perp)
    brute = np.zeros((9, 9))
    for i in range(1, n + 1):
        dia = np.diag(lp ** (i - 1))
        brute += dia @ m @ dia
    brute = (eta / n) * mdl.v_perp @ brute @ mdl.v_perp.T
    rel = (linalg.frobenius_norm(closed - brute)
           / max(linalg.frobenius_norm(brute), 1e-300))
    return {"name": "vbar_closed_form", "value": rel, "bound": 1e-10,
            "passed": bool(rel <= 1e-10)}


def verify(config: ExperimentConfig) -> dict:
    """Run the named self-checks; each appears exactly once in the report. The
    two chi-square checks read one sample of `mc_chisq` draws from ("verify",
    "moments"): the law of `run_reference`'s weights scaled to unit weights, the
    scale the anti-concentration bound is stated at. The moment check's sigma
    ratios are scale-free. The reference law's own sample is never drawn."""
    vbar = reference.build_reference(config.spectral_model(), config.eta_n, config.n)
    weights = reference.chisq_weights(vbar)
    if weights.weights[0] == 0.0:  # sorted descending and clamped at zero
        raise ConfigError("every chi-square weight is zero: the reference law is a point "
                          "mass at zero, on which the chi-square checks are undefined")
    unit = weights.unit()
    draws = reference.sample_weighted_chisq(unit, config.stream("verify", "moments"),
                                            config.mc_chisq)
    checks = [
        _check_hoeffding(config, with_multipliers=False),
        _check_hoeffding(config, with_multipliers=True),
        _check_orthogonality(config),
        _check_chisq_moments(draws, unit),
        _check_anticoncentration(draws),
        _check_covariance_rate(config),
        _check_vbar_closed_form(config),
    ]
    return {"checks": checks, "passed": bool(all(c["passed"] for c in checks))}


# -- file output -------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def write_cdf_csv(path, cdf: stats.EmpiricalCdf) -> None:
    lines = ["t,F"]
    n = cdf.count
    lines.extend(f"{_fmt(t)},{_fmt((i + 1) / n)}"
                 for i, t in enumerate(cdf.sorted_samples))
    Path(path).write_text("\n".join(lines) + "\n")


def write_pooled_csv(path, named_cdfs) -> None:
    lines = ["curve,t,F"]
    for name, cdf in named_cdfs:
        n = cdf.count
        lines.extend(f"{name},{_fmt(t)},{_fmt((i + 1) / n)}"
                     for i, t in enumerate(cdf.sorted_samples))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(path, config: ExperimentConfig, **fields) -> None:
    unknown = set(fields) - set(_SUMMARY_KEYS)
    if unknown:
        raise ValueError(f"unknown summary fields: {sorted(unknown)}")
    payload = {key: fields.get(key) for key in _SUMMARY_KEYS}
    payload["config_echo"] = config.echo()
    try:  # strict JSON: no inf and no nan
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"a summary value is out of the floating-point range: {exc}") from exc
    Path(path).write_text(text + "\n")


def _svg_steps(cdf: stats.EmpiricalCdf):
    """Jump points (t_i, F_i) thinned to a bounded count for plotting."""
    t = cdf.sorted_samples
    f = np.arange(1, cdf.count + 1) / cdf.count
    if t.size > _SVG_MAX_JUMPS:
        idx = np.unique(np.linspace(0, t.size - 1, _SVG_MAX_JUMPS).astype(int))
        t, f = t[idx], f[idx]
    return t, f


def render_cdf_svg(named_cdfs, width: int = 800, height: int = 600) -> str:
    """Overlaid empirical CDF step curves as a self-contained SVG document."""
    colors = ("#1f6fb4", "#c23b22", "#3a8f3a", "#8250a0")
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    pw, ph = width - left - right, height - top - bottom
    lo = min(float(cdf.sorted_samples[0]) for _, cdf in named_cdfs)
    hi = max(float(cdf.sorted_samples[-1]) for _, cdf in named_cdfs)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    sx = lambda t: left + (t - lo) / (hi - lo) * pw
    sy = lambda p: top + (1.0 - p) * ph
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{top + ph:.2f}" x2="{left + pw:.2f}" '
        f'y2="{top + ph:.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{top + ph:.2f}" stroke="black" stroke-width="1"/>',
        f'<text x="{left:.2f}" y="{height - 14:.2f}" font-size="13">{lo:.4g}</text>',
        f'<text x="{left + pw - 40:.2f}" y="{height - 14:.2f}" font-size="13">{hi:.4g}</text>',
        f'<text x="{left - 28:.2f}" y="{sy(0.0) + 4:.2f}" font-size="13">0</text>',
        f'<text x="{left - 28:.2f}" y="{sy(1.0) + 4:.2f}" font-size="13">1</text>',
    ]
    for k, (name, cdf) in enumerate(named_cdfs):
        t, f = _svg_steps(cdf)
        pts = [f"{sx(t[0]):.2f},{sy(0.0):.2f}"]
        prev = 0.0
        for ti, fi in zip(t, f):
            pts.append(f"{sx(ti):.2f},{sy(prev):.2f}")
            pts.append(f"{sx(ti):.2f},{sy(fi):.2f}")
            prev = fi
        pts.append(f"{sx(hi):.2f},{sy(prev):.2f}")
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{left + pw - 150:.2f}" y="{top + 18 + 16 * k:.2f}" '
                     f'font-size="13" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
