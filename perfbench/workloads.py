"""The benchmark's workloads: one ojaboot subcommand each, with its config and
its pinned thread settings.

The seed is not part of a workload. The benchmark passes it to the program
only through `--seed`, which overrides `master_seed` in the config.
In every workload `threads * blas_threads` is at most 2, the core count of the
machine the baseline was measured on.
"""

from __future__ import annotations

from dataclasses import dataclass

# Environment variables that pin the BLAS thread pool of a child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # ojaboot subcommand
    config: dict  # contents of the --config file
    threads: int  # --threads
    blas_threads: int  # value of every BLAS_THREAD_VARS entry in the child
    why: str

    def blas_env(self) -> dict:
        return {var: str(self.blas_threads) for var in BLAS_THREAD_VARS}


_FIGURE_MODEL = {"beta": 1.0, "c": 0.01, "scale": 5.0}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="compare-fig",
        command="compare",
        config={"n": 5000, "d": 100, **_FIGURE_MODEL, "trials": 300, "replicates": 300},
        threads=1,
        blas_threads=1,
        why="figure-scale compare (n=5000, d=100, 300x300), single-threaded: "
            "sampling, the Oja pass and the replicate ensemble dominate"),
    Workload(
        name="stream-small-d",
        command="compare",
        config={"n": 10000, "d": 20, **_FIGURE_MODEL, "trials": 60, "replicates": 300},
        threads=2,
        blas_threads=1,
        why="compare at d=20 with --threads 2: per-step Python overhead, scalar "
            "multiplier draws and the thread pool dominate"),
    Workload(
        name="verify-default",
        command="verify",
        config={},
        threads=1,
        blas_threads=1,
        why="verify on the default config: eigensolver, reference Monte Carlo and "
            "the Hoeffding oracles, no Oja pass and no ensemble"),
)}
