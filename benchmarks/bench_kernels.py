"""Kernel benchmark: dict-backed sweeps vs the compiled batched kernels.

Measures the two layers the compiled representation accelerates:

* **sweeps** — Metropolis-style annealing sweeps at a fixed β = 2.
  The baseline is the dict-of-dicts inner loop every solver used
  before the compiled form existed: per read, per variable, a Python
  dict walk over the adjacency to form the local field.  The compiled
  side is the shipped
  :class:`~repro.annealing.simulated_annealing.SimulatedAnnealingSampler`
  (``beta_range=(2.0, 2.0)``, no greedy postprocess) sampling the
  compiled model: the same schedule as one batched ``(num_reads, n)``
  numpy update per variable, plus building its ``SampleSet``.
  Reported as *variable-sweeps per second* (``num_sweeps × num_reads``
  full passes over all ``n`` variables, divided by wall time).
* **energies** — bulk energy evaluation of a sample batch:
  ``BinaryQuadraticModel.energy`` in a loop vs
  ``CompiledBQM.energies_compat`` in one vectorized pass, which must
  agree bit for bit.
* **cold** — the serving cold path's model layers, dict path against
  arrays, in milliseconds per request over cold requests of the replay
  stream (every request a new problem): *build* (``builder.build()``
  then ``compile_bqm`` vs ``builder.build_compiled()``), *clamp*
  (``clamp_subproblem`` vs ``CompiledBQM.clamp`` on the first round's
  energy-impact blocks of ``sub_size`` variables from a seeded random
  state) and *enumerate* (``brute_force_minimum`` of each clamped
  block in either form), each the fastest of 3 runs and with its
  ``speedup`` (dict / arrays).
* **tabu** — wall time of one ``TabuSampler.sample`` call on the
  compiled model (the sampler's default tenure and stopping rules) per
  model size and read count, as median and quartiles over repeats.
  Models up to 49 variables have the interaction density of the
  join-order and MQO models the hybrid stage serves (~0.45); larger
  ones are sparser.
  ``best_energy`` is recorded so two trees' tables can be checked for
  identical results.

``python benchmarks/run.py kernels`` repeats the measurement and writes
``BENCH_kernels.json``.  ``--smoke`` runs a tiny instance as a CI
health check (seconds, not minutes) and fails unless the compiled path
wins: every sweep speedup and the cold build and clamp speedups must
be at least 1, ratios that carry across hosts where absolute times do
not (the cold enumerate speedup is reported, not gated: both forms
spend most of it in the same einsum).  It uses 32
reads, since the compiled kernel is batched over reads and 8 left it
near parity with the dict loop.  Its one tabu point has no timing
gate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.annealing.simulated_annealing import SimulatedAnnealingSampler
from repro.hybrid.decomposer import clamp_subproblem, energy_impact_indices
from repro.hybrid.tabu import TabuSampler
from repro.joinorder.direct_qubo import DirectJoinOrderQubo
from repro.mqo.qubo import MqoQuboBuilder
from repro.qubo.bqm import BinaryQuadraticModel, Vartype
from repro.qubo.compiled import compile_bqm
from repro.qubo.exact import brute_force_minimum
from repro.replay import replay_stream
from repro.sql import plan_query

#: (num_variables, interaction density) grid of the sweep and energy points
FULL_GRID = ((32, 0.5), (64, 0.25), (128, 0.1), (128, 0.5), (256, 0.05))
#: (num_variables, interaction density) of the tabu points, each timed
#: at every read count of ``tabu_reads``
TABU_GRID = ((16, 0.5), (32, 0.5), (49, 0.45), (128, 0.1), (256, 0.05), (512, 0.02))
FULL = {
    "num_sweeps": 40,
    "num_reads": 128,
    "seed": 11,
    "grid": FULL_GRID,
    "tabu_grid": TABU_GRID,
    "tabu_reads": (2, 10),
    "cold_requests": 200,
    "cold_sub_size": 10,
}
SMOKE = {
    "num_sweeps": 10,
    "num_reads": 32,
    "seed": 11,
    "grid": ((24, 0.4),),
    "tabu_grid": ((16, 0.5),),
    "tabu_reads": (2,),
    "cold_requests": 20,
    "cold_sub_size": 10,
}


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


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def bench_point(n: int, density: float, num_sweeps: int, num_reads: int, seed: int):
    """Sweep and energy timings of one model: ``(timings, info)``."""
    bqm = random_spin_bqm(n, density, seed)

    start = time.perf_counter()
    compiled = compile_bqm(bqm)
    compile_s = time.perf_counter() - start

    total_sweeps = num_sweeps * num_reads

    start = time.perf_counter()
    dict_sweeps(bqm, num_sweeps, num_reads, seed)
    dict_s = time.perf_counter() - start

    sampler = SimulatedAnnealingSampler(
        num_sweeps, beta_range=(2.0, 2.0), greedy_postprocess=False, seed=seed
    )
    start = time.perf_counter()
    sampler.sample(compiled, num_reads)
    compiled_s = time.perf_counter() - start

    # bulk energy evaluation on a shared batch
    rng = np.random.default_rng(seed + 1)
    states = rng.choice((-1.0, 1.0), size=(256, n))
    samples = compiled.states_to_samples(states)
    start = time.perf_counter()
    dict_energies = np.array([bqm.energy(s) for s in samples])
    dict_energy_s = time.perf_counter() - start
    start = time.perf_counter()
    compiled_energies = compiled.energies_compat(states)
    compiled_energy_s = time.perf_counter() - start
    if not np.array_equal(dict_energies, compiled_energies):
        raise AssertionError("compiled energies diverged from the dict model")

    timings = {
        "compile_ms": 1e3 * compile_s,
        "dict_sweeps_per_s": total_sweeps / dict_s,
        "compiled_sweeps_per_s": total_sweeps / compiled_s,
        "sweep_speedup": dict_s / compiled_s,
        "dict_energies_per_s": len(samples) / dict_energy_s,
        "compiled_energies_per_s": len(samples) / compiled_energy_s,
        "energy_speedup": dict_energy_s / compiled_energy_s,
    }
    info = {
        "num_variables": n,
        "density": density,
        "num_interactions": compiled.num_interactions,
    }
    return timings, info


def bench_tabu(n: int, density: float, num_reads: int, seed: int):
    """Milliseconds of one ``TabuSampler.sample`` call: ``(ms, info)``."""
    bqm = random_spin_bqm(n, density, seed)
    compiled = compile_bqm(bqm)
    sampler = TabuSampler(seed=seed)
    start = time.perf_counter()
    result = sampler.sample(compiled, num_reads=num_reads)
    ms = 1e3 * (time.perf_counter() - start)
    info = {
        "num_variables": n,
        "density": density,
        "num_interactions": compiled.num_interactions,
        "num_reads": num_reads,
        "best_energy": float(result.first.energy),
    }
    return ms, info


def _builder(request):
    """The QUBO builder a cold request of any kind compiles through."""
    if request.kind == "mqo":
        return MqoQuboBuilder(request.problem)
    graph = plan_query(request.problem).graph if request.kind == "sql" else request.problem
    return DirectJoinOrderQubo(graph)


def _per_request_ms(work, requests: int, best_of: int = 3) -> float:
    """Fastest of ``best_of`` runs of ``work``, in ms per request."""
    fastest = float("inf")
    for _ in range(best_of):
        start = time.perf_counter()
        work()
        fastest = min(fastest, time.perf_counter() - start)
    return 1e3 * fastest / requests


def bench_cold_path(requests: int, sub_size: int, seed: int):
    """Dict vs array milliseconds per cold request of the build, clamp
    and enumerate layers: ``(timings, info)``."""
    stream = replay_stream(requests, seed=seed, unique=10**6, zipf_s=0.0)
    builders = [_builder(request) for request in stream]
    timings = {
        "build.dict_ms": _per_request_ms(
            lambda: [compile_bqm(b.build()) for b in builders], requests
        ),
        "build.arrays_ms": _per_request_ms(
            lambda: [b.build_compiled() for b in builders], requests
        ),
    }

    rng = np.random.default_rng(seed)
    blocks = []
    for builder in builders:
        model, bqm = builder.build_compiled(), builder.build()
        state = rng.integers(0, 2, model.num_variables).astype(float)
        sample = model.to_sample(state)
        for block in energy_impact_indices(model, state, sub_size):
            blocks.append((model, bqm, block, state, sample))
    subs = {
        "dict": lambda: [
            clamp_subproblem(bqm, [model.variables[i] for i in block], sample)
            for model, bqm, block, state, sample in blocks
        ],
        "arrays": lambda: [
            model.clamp(block, state) for model, bqm, block, state, sample in blocks
        ],
    }
    optima = {}
    for form, clamp in subs.items():
        timings[f"clamp.{form}_ms"] = _per_request_ms(clamp, requests)
        clamped = clamp()
        timings[f"enumerate.{form}_ms"] = _per_request_ms(
            lambda: optima.__setitem__(form, [brute_force_minimum(s) for s in clamped]),
            requests,
        )
    if [r.energy for r in optima["dict"]] != [r.energy for r in optima["arrays"]]:
        raise AssertionError("array blocks enumerate to other optima than dict blocks")
    for layer in ("build", "clamp", "enumerate"):
        timings[f"{layer}.speedup"] = (
            timings[f"{layer}.dict_ms"] / timings[f"{layer}.arrays_ms"]
        )
    return timings, {"requests": requests, "blocks": len(blocks), "sub_size": sub_size}


def measure(smoke: bool):
    """One pass over the sweep grid and the tabu grid; a smoke run fails
    if the compiled kernel is slower than the dict loop anywhere."""
    config = SMOKE if smoke else FULL
    seed = config["seed"]
    timings = {}
    points = []
    slow = []
    for n, density in config["grid"]:
        point, info = bench_point(
            n, density, config["num_sweeps"], config["num_reads"], seed
        )
        key = f"n{n}_d{density:g}"
        timings.update({f"{key}.{name}": value for name, value in point.items()})
        points.append(info)
        if point["sweep_speedup"] < 1.0:
            slow.append(key)
        print(
            f"{key}: {point['dict_sweeps_per_s']:.0f} -> "
            f"{point['compiled_sweeps_per_s']:.0f} sweeps/s "
            f"({point['sweep_speedup']:.1f}x), energies "
            f"{point['energy_speedup']:.1f}x"
        )

    tabu = []
    for n, density in config["tabu_grid"]:
        for reads in config["tabu_reads"]:
            ms, info = bench_tabu(n, density, reads, seed)
            timings[f"tabu.n{n}_d{density:g}.reads{reads}_ms"] = ms
            tabu.append(info)
            print(f"tabu n={n} density={density:g} reads={reads}: {ms:.2f} ms")

    cold, cold_info = bench_cold_path(
        config["cold_requests"], config["cold_sub_size"], seed
    )
    timings.update({f"cold.{name}": value for name, value in cold.items()})
    for layer in ("build", "clamp", "enumerate"):
        print(
            f"cold {layer}: {cold[f'{layer}.dict_ms']:.3f} -> "
            f"{cold[f'{layer}.arrays_ms']:.3f} ms/request "
            f"({cold[f'{layer}.speedup']:.1f}x)"
        )
        # enumeration is einsum-bound on both forms (speedup 1.0-1.7x
        # over full runs), so only build and clamp are gated
        if layer != "enumerate" and cold[f"{layer}.speedup"] < 1.0:
            slow.append(f"cold.{layer}")

    failure = None
    if smoke and slow:
        failure = f"arrays slower than the dict path at {', '.join(slow)}"
    return timings, {"points": points, "tabu": tabu, "cold": cold_info}, failure
