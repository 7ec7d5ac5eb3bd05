"""Output checks for one CLI run. Each check returns a list of problems; an
empty list means the run's output is correct.

Run as a script it checks one output directory and prints the problems as a
JSON list:

    python3 perfbench/check.py COMMAND SEED OUT_DIR LOG_FILE CONFIG_JSON

The benchmark runs it in its own process: a child's ru_maxrss includes the
peak RSS of the process that started it, so the benchmark process itself must
stay small.

The compare check recomputes a few sampled trials and replicates with a plain
numpy loop. It derives the package's substreams (("u0",), ("trial", j),
("data", 0), ("w", i)) straight from numpy's SeedSequence and Philox, and uses
LAPACK instead of the package's eigensolver, so it shares no code with the
program it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

SQRT3 = math.sqrt(3.0)
W_VARIANCE = 0.5  # variance of the bootstrap multipliers
VERIFY_CHECKS = ("hoeffding_exactness", "bootstrap_hoeffding_exactness", "orthogonality",
                 "chisq_moments", "anticoncentration", "covariance_rate",
                 "vbar_closed_form")
COMPARE_FILES = ("sampling_cdf.csv", "sampling_scaled_cdf.csv", "bootstrap_cdf.csv",
                 "compare_cdf.csv", "compare.svg", "compare_summary.json")
QUANTILES = (0.9, 0.95, 0.99)

# Trials and replicates recomputed per compare run.
RECOMPUTE_PICKS = 3
# A recomputed sin^2 must sit this close to the written value, relative to its
# size. Measured gaps between these loops (LAPACK eigh, unfused update) and the
# package (Jacobi eigh, fused ensemble update): up to 2e-10 relative and 1e-13
# absolute. A wrong step size, multiplier variance or data law moves values by
# 1e-4 relative or more.
RECOMPUTE_RTOL = 1e-8
# sin^2 is computed as 1 - cos^2, so small values carry absolute roundoff.
SIN2_ATOL = 1e-12
# Kolmogorov distances are differences of rationals k/m; any exact
# implementation agrees to a few ulps.
KS_ATOL = 1e-12
SCALED_RTOL = 1e-12


def substream(seed: int, path: tuple) -> np.random.Generator:
    """The generator the package keys from (seed, path): each label becomes
    (tag, low 32 bits, high 32 bits), strings through an 8-byte blake2b."""
    words = []
    for label in path:
        if isinstance(label, str):
            tag = 1
            value = int.from_bytes(
                hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")
        else:
            tag, value = 0, label & (2**64 - 1)
        words += [tag, value & 0xFFFFFFFF, value >> 32]
    seq = np.random.SeedSequence(seed, spawn_key=tuple(words))
    return np.random.Generator(np.random.Philox(seq))


def _eta_n(echo: dict) -> float:
    return math.log(echo["n"]) if echo["eta_rule"] == "log_n" else echo["eta_rule"]["fixed"]


def _echo_problems(echo: dict, config: dict, seed: int) -> list[str]:
    problems = [f"config_echo {key}={echo.get(key)!r}, expected {value!r}"
                for key, value in config.items() if echo.get(key) != value]
    if echo.get("master_seed") != seed:
        problems.append(f"config_echo master_seed={echo.get('master_seed')!r}, expected {seed}")
    return problems


def check_verify(out_dir: Path, config: dict, seed: int, log_text: str) -> list[str]:
    report = json.loads((out_dir / "verify_report.json").read_text())
    problems = _echo_problems(report["config_echo"], config, seed)
    names = [c["name"] for c in report["checks"]]
    if sorted(names) != sorted(VERIFY_CHECKS):
        problems.append(f"verify checks {names}, expected {list(VERIFY_CHECKS)}")
    problems += [f"verify check {c['name']} failed: value {c['value']!r}, bound {c['bound']!r}"
                 for c in report["checks"] if c["passed"] is not True]
    problems += [f"stdout lacks '{name}: pass'" for name in VERIFY_CHECKS
                 if f"{name}: pass" not in log_text.splitlines()]
    return problems


def _read_cdf(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    lines = path.read_text().splitlines()
    if lines[0] != "t,F":
        raise ValueError(f"{path.name}: header {lines[0]!r}")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return lines[1:], rows[:, 0], rows[:, 1]


def _cdf_problems(name: str, t: np.ndarray, f: np.ndarray, count: int, unit_range: bool):
    problems = []
    if t.size != count:
        problems.append(f"{name}: {t.size} rows, expected {count}")
        return problems
    if not np.all(np.diff(t) >= 0.0):
        problems.append(f"{name}: t is not sorted")
    if not np.array_equal(f, np.arange(1, count + 1) / count):
        problems.append(f"{name}: F is not k/{count}")
    if unit_range and not (t.min() >= 0.0 and t.max() <= 1.0):
        problems.append(f"{name}: sin^2 outside [0, 1] ({t.min()!r}, {t.max()!r})")
    return problems


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b| over pooled jumps, both one-sided limits."""
    points = np.union1d(a, b)
    right = np.searchsorted(a, points, "right") / a.size - np.searchsorted(b, points, "right") / b.size
    left = np.searchsorted(a, points, "left") / a.size - np.searchsorted(b, points, "left") / b.size
    return float(max(np.abs(right).max(), np.abs(left).max()))


def check_compare(out_dir: Path, config: dict, seed: int) -> list[str]:
    missing = [name for name in COMPARE_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    summary = json.loads((out_dir / "compare_summary.json").read_text())
    echo = summary["config_echo"]
    problems = _echo_problems(echo, config, seed)
    trials, replicates = echo["trials"], echo["replicates"]
    eta = _eta_n(echo)

    s_lines, s_t, s_f = _read_cdf(out_dir / "sampling_cdf.csv")
    _, c_t, c_f = _read_cdf(out_dir / "sampling_scaled_cdf.csv")
    b_lines, b_t, b_f = _read_cdf(out_dir / "bootstrap_cdf.csv")
    problems += _cdf_problems("sampling_cdf.csv", s_t, s_f, trials, True)
    problems += _cdf_problems("sampling_scaled_cdf.csv", c_t, c_f, trials, False)
    problems += _cdf_problems("bootstrap_cdf.csv", b_t, b_f, replicates, True)
    if problems:
        return problems

    if not np.allclose(c_t, (echo["n"] / eta) * s_t, rtol=SCALED_RTOL, atol=0.0):
        problems.append("sampling_scaled_cdf.csv is not (n / eta_n) * sampling sin^2")
    pooled = ["curve,t,F"] + [f"bootstrap,{x}" for x in b_lines] + [f"sampling,{x}" for x in s_lines]
    if (out_dir / "compare_cdf.csv").read_text().splitlines() != pooled:
        problems.append("compare_cdf.csv is not the bootstrap and sampling CDFs pooled")
    ks = ks_distance(b_t, s_t)
    if abs(summary["ks"] - ks) > KS_ATOL:
        problems.append(f"summary ks {summary['ks']!r}, recomputed {ks!r}")
    problems += _quantile_problems(summary, b_t)
    svg = (out_dir / "compare.svg").read_text()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("compare.svg is not an svg document")

    picks = random.Random(seed)
    trial_ids = sorted(picks.sample(range(trials), min(RECOMPUTE_PICKS, trials)))
    rep_ids = sorted(picks.sample(range(replicates), min(RECOMPUTE_PICKS, replicates)))
    sin2_trials, sin2_reps = recompute(echo, seed, eta, trial_ids, rep_ids)
    for label, ids, values, column in (("trial", trial_ids, sin2_trials, s_t),
                                       ("replicate", rep_ids, sin2_reps, b_t)):
        for k, value in zip(ids, values):
            gap = float(np.min(np.abs(column - value)))
            if not gap <= RECOMPUTE_RTOL * abs(value) + SIN2_ATOL:
                problems.append(f"recomputed {label} {k} sin^2 {value!r} not in the CSV "
                                f"(nearest gap {gap:.3e})")
    return problems


def _quantile_problems(summary: dict, t: np.ndarray) -> list[str]:
    problems = []
    for p in QUANTILES:
        want = float(t[min(int(np.ceil(p * t.size)) - 1, t.size - 1)])
        got = summary["quantiles"].get(f"q{p}")
        if got != want:
            problems.append(f"summary q{p} {got!r}, recomputed {want!r}")
    return problems


def _kernel_eigen(echo: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues (descending), eigenvectors and the PSD root of
    Sigma_ij = exp(-c|i-j|) s_i s_j, s_i = scale * i^-beta, i 1-based."""
    idx = np.arange(1, echo["d"] + 1, dtype=float)
    s = echo["scale"] * idx ** (-echo["beta"])
    sigma = np.exp(-echo["c"] * np.abs(idx[:, None] - idx[None, :])) * np.outer(s, s)
    vals, vecs = np.linalg.eigh(sigma)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return vals[::-1], vecs[:, ::-1], root


def _sin2(u: np.ndarray, v: np.ndarray) -> float:
    return float(min(1.0, max(0.0, 1.0 - (u @ v) ** 2 / ((u @ u) * (v @ v)))))


def _oja(x: np.ndarray, u0: np.ndarray, a: float) -> np.ndarray:
    w = u0.copy()
    for row in x:
        w = w + a * (w @ row) * row
        w /= np.linalg.norm(w)
    return w


def recompute(echo: dict, seed: int, eta: float, trial_ids, rep_ids):
    """sin^2 of the sampled trials against v1, and of the sampled bootstrap
    replicates against the Oja estimate on ("data", 0)."""
    n, d = echo["n"], echo["d"]
    a = eta / n
    _, vecs, root = _kernel_eigen(echo)
    v1 = vecs[:, 0]
    u0 = substream(seed, ("u0",)).standard_normal(d)
    u0 /= np.linalg.norm(u0)

    def data(path):
        return substream(seed, path).uniform(-SQRT3, SQRT3, (n, d)) @ root

    trials = [_sin2(_oja(data(("trial", j)), u0, a), v1) for j in trial_ids]
    x = data(("data", 0))
    v_hat = _oja(x, u0, a)
    reps = []
    for i in rep_ids:
        w = math.sqrt(W_VARIANCE) * substream(seed, ("w", i)).standard_normal(n - 1)
        v = u0 + a * (u0 @ x[0]) * x[0]
        v /= np.linalg.norm(v)
        for t in range(1, n):
            h = (v @ x[t]) * x[t]
            g = (v @ x[t - 1]) * x[t - 1]
            v = v + a * (h + w[t - 1] * (h - g))
            v /= np.linalg.norm(v)
        reps.append(float(np.clip(1.0 - (v @ v_hat) ** 2, 0.0, 1.0)))
    return trials, reps


def main(argv) -> int:
    command, seed, out_dir, log_file, config = argv
    out_dir, config, seed = Path(out_dir), json.loads(config), int(seed)
    try:
        if command == "verify":
            problems = check_verify(out_dir, config, seed, Path(log_file).read_text())
        else:
            problems = check_compare(out_dir, config, seed)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"output check raised {type(exc).__name__}: {exc}"]
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
