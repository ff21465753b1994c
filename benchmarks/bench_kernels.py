"""Kernel benchmark: dict-backed sweeps vs the compiled batched kernels.

Measures the two layers the compiled representation accelerates:

* **sweeps** — Metropolis-style annealing sweeps.  The baseline is the
  dict-of-dicts inner loop every solver used before the compiled form
  existed: per read, per variable, a Python dict walk over the
  adjacency to form the local field.  The compiled kernel runs the
  same schedule as one batched ``(num_reads, n)`` numpy update per
  variable (the :mod:`repro.annealing.simulated_annealing` inner loop).
  Reported as *variable-sweeps per second* (``num_sweeps × num_reads``
  full passes over all ``n`` variables, divided by wall time).
* **energies** — bulk energy evaluation of a sample batch:
  ``BinaryQuadraticModel.energy`` in a loop vs
  ``CompiledBQM.energies`` in one vectorized pass.
* **tabu** — wall time of one ``TabuSampler.sample`` call (the
  sampler's default tenure and stopping rules) per model size and read
  count, as median and quartiles over repeats.  Models up to 49
  variables have the interaction density of the join-order and MQO
  models the hybrid stage serves (~0.45); larger ones are sparser.
  ``best_energy`` is recorded so two trees' tables can be checked for
  identical results.

Results go to ``BENCH_kernels.json`` at the repository root so
successive PRs can track kernel throughput.  ``--smoke`` runs a tiny
instance as a CI health check (seconds, not minutes) and still asserts
the compiled path wins; it uses 32 reads, since the compiled kernel is
batched over reads and 8 left it near parity with the dict loop.  Its
one tabu point has no timing gate.  A smoke
run writes a report only when ``--output`` is given.

The repository's ``src`` goes at the *end* of ``sys.path``, so a
``PYTHONPATH`` names the tree under test: run the same script with
``PYTHONPATH=<other tree>/src`` to time another commit's kernels.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.append(str(REPO_ROOT / "src"))

from provenance import report_path, write_report  # noqa: E402

from repro.hybrid.tabu import TabuSampler  # noqa: E402
from repro.qubo.bqm import BinaryQuadraticModel, Vartype  # noqa: E402
from repro.qubo.compiled import compile_bqm  # noqa: E402

#: (num_variables, interaction density) grid of the full benchmark
FULL_GRID = ((32, 0.5), (64, 0.25), (128, 0.1), (128, 0.5), (256, 0.05))
SMOKE_GRID = ((24, 0.4),)
#: (num_variables, interaction density) of the tabu points, each timed
#: at every read count of TABU_READS
TABU_GRID = ((16, 0.5), (32, 0.5), (49, 0.45), (128, 0.1), (256, 0.05), (512, 0.02))
TABU_READS = (2, 10)
#: timed TabuSampler.sample calls per tabu point (median and quartiles)
TABU_REPEATS = 5
SMOKE_TABU_GRID = ((16, 0.5),)
SMOKE_TABU_READS = (2,)


def random_spin_bqm(n: int, density: float, seed: int) -> BinaryQuadraticModel:
    rng = np.random.default_rng(seed)
    bqm = BinaryQuadraticModel(
        {f"s{i}": float(rng.uniform(-1, 1)) for i in range(n)}, vartype=Vartype.SPIN
    )
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                bqm.add_quadratic(f"s{i}", f"s{j}", float(rng.uniform(-1, 1)))
    return bqm


# ----------------------------------------------------------------------
# sweep kernels under test
# ----------------------------------------------------------------------
def dict_sweeps(bqm, num_sweeps: int, num_reads: int, seed: int) -> np.ndarray:
    """The pre-compiled-era inner loop: dict adjacency, one read at a
    time, one Python-level field accumulation per (read, variable)."""
    rng = np.random.default_rng(seed)
    variables = list(bqm.variables)
    n = len(variables)
    linear = bqm.linear
    adjacency = {v: [] for v in variables}
    for u, v, bias in bqm.interactions():
        adjacency[u].append((v, bias))
        adjacency[v].append((u, bias))
    beta = 2.0

    spins = {
        read: {v: (1 if rng.random() < 0.5 else -1) for v in variables}
        for read in range(num_reads)
    }
    for _ in range(num_sweeps):
        order = rng.permutation(n)
        for read in range(num_reads):
            state = spins[read]
            for idx in order:
                v = variables[idx]
                field = linear[v]
                for u, bias in adjacency[v]:
                    field += bias * state[u]
                delta = -2.0 * state[v] * field
                if delta < 0 or rng.random() < np.exp(-beta * min(delta, 700.0)):
                    state[v] = -state[v]
    return np.array(
        [[spins[r][v] for v in variables] for r in range(num_reads)], dtype=float
    )


def compiled_sweeps(compiled, num_sweeps: int, num_reads: int, seed: int) -> np.ndarray:
    """The batched kernel: one vectorized update over all reads."""
    rng = np.random.default_rng(seed)
    n = compiled.num_variables
    h = compiled.linear
    neighbors = compiled.neighbor_index
    couplings = compiled.neighbor_bias
    beta = 2.0

    spins = rng.choice((-1.0, 1.0), size=(num_reads, n))
    for _ in range(num_sweeps):
        for i in rng.permutation(n):
            if len(neighbors[i]):
                field = h[i] + spins[:, neighbors[i]] @ couplings[i]
            else:
                field = np.full(num_reads, h[i])
            delta = -2.0 * spins[:, i] * field
            accept = (delta < 0) | (
                rng.random(num_reads) < np.exp(-beta * np.clip(delta, 0, 700))
            )
            spins[accept, i] *= -1.0
    return spins


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def bench_point(
    n: int, density: float, num_sweeps: int, num_reads: int, seed: int
) -> dict:
    bqm = random_spin_bqm(n, density, seed)

    start = time.perf_counter()
    compiled = compile_bqm(bqm)
    compile_s = time.perf_counter() - start

    total_sweeps = num_sweeps * num_reads

    start = time.perf_counter()
    dict_sweeps(bqm, num_sweeps, num_reads, seed)
    dict_s = time.perf_counter() - start

    start = time.perf_counter()
    compiled_sweeps(compiled, num_sweeps, num_reads, seed)
    compiled_s = time.perf_counter() - start

    # bulk energy evaluation on a shared batch
    rng = np.random.default_rng(seed + 1)
    states = rng.choice((-1.0, 1.0), size=(256, n))
    samples = compiled.states_to_samples(states)
    start = time.perf_counter()
    dict_energies = np.array([bqm.energy(s) for s in samples])
    dict_energy_s = time.perf_counter() - start
    start = time.perf_counter()
    fast_energies = compiled.energies(states)
    compiled_energy_s = time.perf_counter() - start
    if not np.allclose(dict_energies, fast_energies, atol=1e-6):
        raise AssertionError("compiled energies diverged from the dict model")

    return {
        "num_variables": n,
        "density": density,
        "num_interactions": compiled.num_interactions,
        "num_sweeps": num_sweeps,
        "num_reads": num_reads,
        "compile_s": round(compile_s, 5),
        "sweeps_per_s": {
            "dict": round(total_sweeps / dict_s, 1),
            "compiled": round(total_sweeps / compiled_s, 1),
        },
        "sweep_speedup": round(dict_s / compiled_s, 2),
        "energies_per_s": {
            "dict": round(len(samples) / dict_energy_s, 1),
            "compiled": round(len(samples) / compiled_energy_s, 1),
        },
        "energy_speedup": round(dict_energy_s / compiled_energy_s, 2),
    }


def bench_tabu(n: int, density: float, num_reads: int, repeats: int, seed: int) -> dict:
    bqm = random_spin_bqm(n, density, seed)
    compiled = compile_bqm(bqm)
    sampler = TabuSampler(seed=seed)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = sampler.sample(bqm, num_reads=num_reads, compiled=compiled)
        times.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(np.array(times) * 1e3, [25, 50, 75])
    return {
        "num_variables": n,
        "density": density,
        "num_interactions": compiled.num_interactions,
        "num_reads": num_reads,
        "repeats": repeats,
        "ms_p50": round(float(median), 3),
        "ms_q1": round(float(q1), 3),
        "ms_q3": round(float(q3), 3),
        "best_energy": float(result.first.energy),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instance only; assert the compiled kernel wins",
    )
    parser.add_argument("--sweeps", type=int, default=None)
    parser.add_argument("--reads", type=int, default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--output", default=None,
        help="where to write the JSON report (default: BENCH_kernels.json "
        "for full runs; a smoke run writes only when this is given)",
    )
    args = parser.parse_args(argv)

    grid = SMOKE_GRID if args.smoke else FULL_GRID
    num_sweeps = args.sweeps if args.sweeps is not None else (10 if args.smoke else 40)
    num_reads = args.reads if args.reads is not None else (32 if args.smoke else 128)

    points = []
    for n, density in grid:
        point = bench_point(n, density, num_sweeps, num_reads, args.seed)
        points.append(point)
        print(
            f"n={n} density={density:g}: "
            f"{point['sweeps_per_s']['dict']:.0f} -> "
            f"{point['sweeps_per_s']['compiled']:.0f} sweeps/s "
            f"({point['sweep_speedup']:.1f}x), energies "
            f"{point['energy_speedup']:.1f}x"
        )

    tabu_grid = SMOKE_TABU_GRID if args.smoke else TABU_GRID
    tabu_reads = SMOKE_TABU_READS if args.smoke else TABU_READS
    tabu_repeats = 1 if args.smoke else TABU_REPEATS
    tabu = []
    for n, density in tabu_grid:
        for reads in tabu_reads:
            point = bench_tabu(n, density, reads, tabu_repeats, args.seed)
            tabu.append(point)
            print(
                f"tabu n={n} density={density:g} reads={reads}: "
                f"{point['ms_p50']:.2f} ms "
                f"(IQR {point['ms_q1']:.2f}-{point['ms_q3']:.2f})"
            )

    if args.smoke:
        slow = [p for p in points if p["sweep_speedup"] < 1.0]
        if slow:
            print("FAIL: compiled kernel slower than the dict loop", file=sys.stderr)
            return 1
        print("smoke ok: compiled kernel faster on every point")

    write_report(
        report_path(args.output, args.smoke, "BENCH_kernels.json"),
        "kernels",
        {
            "num_sweeps": num_sweeps,
            "num_reads": num_reads,
            "seed": args.seed,
            "tabu_repeats": tabu_repeats,
            "smoke": args.smoke,
        },
        {"points": points, "tabu": tabu},
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
