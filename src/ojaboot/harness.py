"""Experiment orchestration: sampling runs, bootstrap runs, the reference law,
the self-verification suite, and the CSV/JSON/SVG writers.

Every random consumer owns a substream derived from (master_seed, path), and
blocks and time chunks have sizes fixed by the config, so any output file is a
pure function of the config. Aggregation is always in unit-index order and
floats are serialized through repr, which keeps reruns byte-identical. The
runners share no state, so the CLI may run two of them in separate processes
(compare's sampling and bootstrap, under --threads >= 2) without a byte changing.

Each runner is one loop of `oja.advance` over blocks of rows, which `oja.unit_rows`
normalizes once, at the end. Sampling moves blocks of up to 100 trials through
chunks whose coordinates fill one buffer, a fixed share per trial. Each chunk of
the bootstrap's one dataset (256 steps, 100 from d = 63) moves the replicates and
v_hat (zero multipliers), so its memory is O((chunk + replicates) d), not O(n d).
Verify sorts its one chi-square sample in place, and its Hoeffding checks compare
integer numerators only; the CSV writers write _CSV_ROWS rows at a time, never a
whole file's text.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import bootstrap, hoeffding, linalg, model, oja, randgen, reference, stats

# The row caps bound temporaries and draw calls at very large counts. Bootstrap blocks
# that start at multiples of 4 keep each row's rounding in the (2, d) @ (d, m) products
# (at d = 100, 521 rows split 512|9 move no bit, split 37|484 two rows). A bootstrap
# chunk draws its data rows once and one multiplier row per block row. A sampling chunk
# takes one uniform draw per trial into one buffer of _TRIAL_FLOATS coordinates per
# trial of the first block (1.0 MiB and 12 steps per draw for 100 trials at d = 100,
# 600 KiB and 64 steps for 60 trials at d = 20).
# Both compare loops multiply (rows, d) @ (d, d) blocks by Sigma^(1/2), which OpenBLAS
# 0.3.31 does on its small-matrix dgemm path while rows * d * d <= _SMALL_GEMM: at
# d = 100 a row costs about 28 % less at 100 rows than at 101 to 128. The path also
# sets a row's rounding: at d = 100, up to 100 rows round as they do alone, and from
# 101 rows up as in the 128-row product, so _SAMPLING_BLOCK and bootstrap_steps are
# part of what defines the output.
_BLOCK = 512
_SMALL_GEMM = 10**6
_BOOTSTRAP_STEPS = 256
_SAMPLING_BLOCK = 100
_TRIAL_FLOATS = 1280
# SVG polylines thin to this many jumps; CSVs always keep every sample
_SVG_MAX_JUMPS = 1024
_CSV_ROWS = 4096
_SVG_WIDTH, _SVG_HEIGHT = 800, 600

_SUMMARY_KEYS = ("config_echo", "ks", "trace_vbar", "frob_vbar",
                 "weights_top10", "quantiles", "checks")


class ConfigError(ValueError):
    """Invalid experiment configuration; the CLI maps this to exit code 2."""


def _require_finite(name: str, value) -> None:
    # an exact comparison: an int past the largest float has no float
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The config file's schema: one field per key, validated by its annotation."""

    n: int = 5000
    d: int = 100
    beta: float = 1.0
    c: float = 0.01
    scale: float = 5.0
    trials: int = 300
    replicates: int = 300
    eta_rule: str | dict = "log_n"  # or {"fixed": value}
    master_seed: int = 0
    mc_m_estimate: int = 10**5  # validated and echoed; the moment matrix is exact
    mc_chisq: int = 10**5
    output_dir: str = "out"

    def __post_init__(self):
        for f in fields(self):  # the annotations are strings, from __future__
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, (int, np.integer))
                                    or f.name != "master_seed" and not -2**63 <= value < 2**63):
                raise ConfigError(f"{f.name} must be a 64-bit integer, got {value!r}")
            if f.type == "float":
                _require_finite(f.name, value)
            if f.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
        if self.n < 2 or self.d < 2:
            raise ConfigError("need n >= 2 and d >= 2")
        if self.trials < 1 or self.replicates < 1:
            raise ConfigError("need trials >= 1 and replicates >= 1")
        if self.mc_m_estimate < 1 or self.mc_chisq < 1:
            raise ConfigError("Monte Carlo sizes must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in 64 bits")
        if self.scale <= 0 or self.c < 0:
            raise ConfigError("need scale > 0 and c >= 0")
        rule = self.eta_rule
        if rule != "log_n":
            if not (isinstance(rule, dict) and set(rule) == {"fixed"}):
                raise ConfigError(f'eta_rule must be "log_n" or {{"fixed": value}}, got {rule!r}')
            _require_finite("eta_rule.fixed", rule["fixed"])
            if not rule["fixed"] > 0:
                raise ConfigError("fixed eta rule needs a positive value")
            object.__setattr__(self, "eta_rule", {"fixed": float(rule["fixed"])})

    @property
    def eta_n(self) -> float:
        return float(np.log(self.n)) if self.eta_rule == "log_n" else self.eta_rule["fixed"]

    def spectral_model(self, d: int | None = None) -> model.SpectralModel:
        """The kernel model, on d coordinates instead of the config's if given."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return model.spectral_decompose(model.KernelSpec(
                    d=self.d if d is None else d, c=self.c, beta=self.beta, scale=self.scale))
        except ValueError as exc:  # the inputs are valid: the covariance overflowed
            raise self.out_of_range("the covariance") from exc

    def out_of_range(self, what: str) -> ConfigError:
        return ConfigError(f"{what} overflows at scale = {self.scale!r}, beta = {self.beta!r}")

    def stream(self, *path) -> randgen.RngStream:
        return randgen.derive_stream(self.master_seed, path)

    def echo(self) -> dict:
        """The config file's keys and values."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**raw)


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


def bootstrap_steps(d: int) -> int:
    """Steps per bootstrap data chunk: 256, or 100 where a 256-row chunk at d would
    leave the small-matrix path (d >= 63)."""
    return _BOOTSTRAP_STEPS if _BOOTSTRAP_STEPS * d * d <= _SMALL_GEMM else _SAMPLING_BLOCK


def draw_u0(config: ExperimentConfig) -> np.ndarray:
    return oja.normalize(config.stream("u0").normal(0.0, 1.0, config.d))


def _unit_rows(w, config: ExperimentConfig) -> np.ndarray:
    """oja.unit_rows at the end of a pass; a pass that left the finite range is a
    step size too large for the data."""
    try:
        return oja.unit_rows(w)
    except ValueError as exc:
        raise ConfigError(f"{exc} (eta_n = {config.eta_n!r} or scale = {config.scale!r} "
                          "is too large)") from exc


def run_sampling_experiment(config: ExperimentConfig) -> dict:
    """Fixed u0, `trials` fresh datasets, one Oja pass each; errors vs true v1.
    A trial draws its rows chunk by chunk from its own ("trial", j) stream,
    the same uniform coordinates as one bulk draw. Its iterate is rescaled only
    by powers of two during the pass and normalized once, at the end."""
    gain = config.n / config.eta_n  # the scaled errors are gain * sin^2
    if not math.isfinite(gain):
        raise ConfigError(f"n / eta_n leaves the finite range at eta_n = {config.eta_n!r}")
    mdl = config.spectral_model()
    u0 = draw_u0(config)
    eta = config.eta_n / config.n
    buf = np.empty(min(config.trials, _SAMPLING_BLOCK) * max(_TRIAL_FLOATS, config.d))
    blocks = []
    for first in range(0, config.trials, _SAMPLING_BLOCK):
        streams = [config.stream("trial", j)
                   for j in range(first, min(first + _SAMPLING_BLOCK, config.trials))]
        w = oja.start(u0, len(streams))
        step = buf.size // (len(streams) * config.d)
        for lo in range(0, config.n, step):
            shape = (len(streams), min(step, config.n - lo), config.d)
            z = model.sample_paths(mdl, streams, buf[:math.prod(shape)].reshape(shape))
            w = oja.advance(w, z, eta, root=mdl.sqrt_sigma)
        blocks.append(w)
    errors = np.array([oja.sin2(row, mdl.v1) for row in _unit_rows(np.vstack(blocks), config)])
    scaled = gain * errors
    return {
        "cdf": stats.ecdf(errors),
        "samples": errors,
        "scaled_samples": scaled,
        "scaled_cdf": stats.ecdf(scaled),
        "mean": float(errors.mean()),
        "median": stats.median(errors),
        "u0": u0,
    }


def run_bootstrap_experiment(config: ExperimentConfig) -> dict:
    """One dataset streamed from ("data", 0), m multiplier-perturbed replicate chains
    drawing from their own ("w", i) streams, and their errors vs the unperturbed
    estimate v_hat, the row after the replicates."""
    mdl = config.spectral_model()
    u0 = draw_u0(config)
    eta = config.eta_n / config.n
    data = config.stream("data", 0)
    streams = [config.stream("w", i) for i in range(config.replicates)]
    rows = config.replicates + 1  # v_hat is the last row, with zero multipliers
    blocks = [oja.start(u0, min(_BLOCK, rows - first)) for first in range(0, rows, _BLOCK)]
    prev, step = None, bootstrap_steps(config.d)
    for lo in range(0, config.n, step):
        hi = min(lo + step, config.n)
        x = model.sample_x(mdl, data, hi - lo)
        blocks = [oja.advance(w, x, eta, bootstrap.draw_multipliers(
                      streams[k * _BLOCK:][:len(w)], lo, hi, len(w)), prev)
                  for k, w in enumerate(blocks)]
        prev = x[-1]
    unit = _unit_rows(np.vstack(blocks), config)
    errors = np.clip(1.0 - (unit[:-1] @ unit[-1]) ** 2, 0.0, 1.0)
    cdf = stats.ecdf(errors)
    return {
        "cdf": cdf,
        "errors": errors,
        "v_hat": unit[-1],
        "quantiles": {f"q{p}": cdf.quantile(p) for p in (0.9, 0.95, 0.99)},
        "u0": u0,
    }


def _reference_law(config: ExperimentConfig) -> tuple:
    """(vbar, its chi-square weights) for `run_reference` and `verify`. A law whose
    weights are all zero (a rank-one covariance, or one that underflowed) is a
    point mass at zero, which neither can use; so is a subnormal vbar, whose
    eigenvalues carry roundoff of their own size, negative ones too."""
    mdl = config.spectral_model()
    mdl.require_gap()  # a degenerate gap is its own error
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            vbar = reference.build_reference(mdl, config.eta_n, config.n)
    except ValueError as exc:  # the inputs are valid: the moments overflowed
        raise config.out_of_range("the reference covariance") from exc
    point_mass = ("the reference law is a point mass at zero, on which the chi-square "
                  "checks are undefined")
    try:
        weights = reference.chisq_weights(vbar)
    except linalg.NotPsdError as exc:
        largest = float(np.abs(vbar).max())
        if largest >= np.finfo(float).tiny:
            raise
        raise ConfigError(f"the reference covariance underflows to subnormal entries "
                          f"(largest {largest!r}): {point_mass}") from exc
    if weights.weights[0] == 0.0:  # sorted descending and clamped at zero
        raise ConfigError(f"every chi-square weight is zero: {point_mass}")
    return vbar, weights


def run_reference(config: ExperimentConfig) -> dict:
    """Assemble the reference covariance and sample its weighted chi-square law.

    The draws are on the scale of (n/eta_n) * sin2, the units the limit law
    is stated in.
    """
    vbar, weights = _reference_law(config)
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

def _check_hoeffding(config: ExperimentConfig) -> list:
    """Both decomposition identities on eight (n, d, eta) cases, each case's data
    drawn before its multipliers. The subset terms can cancel by a factor of ~4e6,
    enough for float64 roundoff alone to cross the bound, and the products pass
    1e308 from scale ~1e25: both are evaluated exactly, as integer numerators, each
    scaled by the other side's denominator (sigma's finer bits can make the sum's
    larger, as at c = 30), and the ratio is one correctly rounded int division."""
    worst = {"hoeffding_exactness": 0.0, "bootstrap_hoeffding_exactness": 0.0}
    case = 0
    for n in (4, 6):
        for d in (2, 3):
            mdl = config.spectral_model(d)
            for eta in (1.0, float(np.log(n))):
                st = config.stream("verify", "hoeffding", case)
                data = model.sample_x(mdl, st, n)
                w = np.concatenate([[0.0], st.normal(0.0, 0.5, n - 1)])
                for name, args in (("hoeffding_exactness", {"sigma": mdl.sigma}),
                                   ("bootstrap_hoeffding_exactness", {"weights": w})):
                    total, _, den_t = hoeffding.hoeffding_sum(data, eta, **args, exact=True)
                    direct, den_d = hoeffding.direct_product(data, eta, args.get("weights"),
                                                             exact=True)
                    t, d, den = total * den_d, direct * den_t, den_t * den_d
                    err = 0.0 if (t == d).all() else math.sqrt(
                        np.sum((t - d) ** 2) / max(den * den, np.sum(d ** 2)))
                    worst[name] = max(worst[name], err)
                case += 1
    return [{"name": name, "value": err, "bound": 1e-10, "passed": bool(err <= 1e-10)}
            for name, err in worst.items()]


def _check_orthogonality(config: ExperimentConfig) -> dict:
    # lopsided two-point mean-zero law so the centered factor does not vanish
    sup = np.array([[1.2, 0.5], [-0.6, -0.25]])
    spec = model.DiscreteSpec(sup, np.array([1 / 3, 2 / 3]))
    worst = hoeffding.orthogonality_table(spec, n=4, eta_n=1.0)
    return {"name": "orthogonality", "value": worst, "bound": 1e-10,
            "passed": bool(worst <= 1e-10)}


def _check_chisq_moments(draws, weights: reference.WeightedChiSq) -> dict:
    n, mean = draws.size, draws.mean()
    se_mean = np.sqrt(weights.variance / n)
    mean_dev = abs(mean - weights.mean) / max(se_mean, 1e-300)
    # np.mean((draws - mean) ** 4) and draws.var() bit for bit, in one scratch array
    scratch = np.subtract(draws, mean)
    m4 = float(np.power(scratch, 4, out=scratch).mean())
    np.subtract(draws, mean, out=scratch)
    var = np.multiply(scratch, scratch, out=scratch).sum() / n
    se_var = np.sqrt(max(m4 - var ** 2, 1e-300) / n)
    var_dev = abs(var - weights.variance) / se_var
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
        medians[n] = stats.median(diffs)
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
    ratios are scale-free. The reference law's own sample is never drawn, and
    verify's is sorted in place for the anti-concentration check, never copied."""
    unit = _reference_law(config)[1].unit()
    draws = reference.sample_weighted_chisq(unit, config.stream("verify", "moments"),
                                            config.mc_chisq)
    checks = [*_check_hoeffding(config), _check_orthogonality(config),
              _check_chisq_moments(draws, unit)]
    draws.sort()  # in place, after the moment check: its sums run in draw order
    checks += [_check_anticoncentration(draws), _check_covariance_rate(config),
               _check_vbar_closed_form(config)]
    return {"checks": checks, "passed": bool(all(c["passed"] for c in checks))}


# -- file output -------------------------------------------------------------

def _cdf_rows(cdf: stats.EmpiricalCdf, prefix: str = ""):
    """Rows "t,F" after `prefix`, the floats written through repr, _CSV_ROWS a string."""
    n = cdf.count
    for lo in range(0, n, _CSV_ROWS):
        chunk = cdf.sorted_samples[lo:lo + _CSV_ROWS].tolist()
        yield "".join(f"{prefix}{t!r},{(i + 1) / n!r}\n" for i, t in enumerate(chunk, lo))


def write_text(path, first: str, rest=()) -> None:
    """first, then rest's strings (the first of them in first's write) to path."""
    rest = iter(rest)
    try:
        with open(path, "w") as f:
            f.write(first + next(rest, ""))
            f.writelines(rest)
    except OSError as exc:  # a file that cannot be written is a config error
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_cdf_csv(path, cdf: stats.EmpiricalCdf) -> None:
    write_text(path, "t,F\n", _cdf_rows(cdf))


def write_pooled_csv(path, named_cdfs) -> None:
    write_text(path, "curve,t,F\n",
               (rows for name, cdf in named_cdfs for rows in _cdf_rows(cdf, f"{name},")))


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
    write_text(path, text + "\n")


def _svg_steps(cdf: stats.EmpiricalCdf):
    """Jump points (t_i, F_i) thinned to a bounded count for plotting."""
    t = cdf.sorted_samples
    f = np.arange(1, cdf.count + 1) / cdf.count
    if t.size > _SVG_MAX_JUMPS:  # then the indices are strictly increasing
        idx = np.linspace(0, t.size - 1, _SVG_MAX_JUMPS).astype(int)
        t, f = t[idx], f[idx]
    return t, f


def render_cdf_svg(named_cdfs) -> str:
    """Overlaid empirical CDF step curves as a self-contained SVG document."""
    colors = ("#1f6fb4", "#c23b22", "#3a8f3a", "#8250a0")
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    pw, ph = _SVG_WIDTH - left - right, _SVG_HEIGHT - top - bottom
    lo = min(float(cdf.sorted_samples[0]) for _, cdf in named_cdfs)
    hi = max(float(cdf.sorted_samples[-1]) for _, cdf in named_cdfs)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    sx = lambda t: left + (t - lo) / (hi - lo) * pw
    sy = lambda p: top + (1.0 - p) * ph
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{left:.2f}" y1="{top + ph:.2f}" x2="{left + pw:.2f}" '
        f'y2="{top + ph:.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{top + ph:.2f}" stroke="black" stroke-width="1"/>',
        f'<text x="{left:.2f}" y="{_SVG_HEIGHT - 14:.2f}" font-size="13">{lo:.4g}</text>',
        f'<text x="{left + pw - 40:.2f}" y="{_SVG_HEIGHT - 14:.2f}" font-size="13">{hi:.4g}</text>',
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
