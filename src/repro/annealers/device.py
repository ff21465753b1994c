"""One simulated annealer device with a topology-constrained capacity.

The paper's central practical limit is annealer capacity (Secs. 6.2,
6.3.5): an instance is solvable only if its interaction graph *minor-
embeds* on the hardware working graph, and the usable clique size grows
far slower than the raw qubit count.  :class:`AnnealerDevice` models
exactly that for a *simulated* annealer: it owns a Chimera or Pegasus
working graph (the generators from :mod:`repro.annealing`), answers
"does this subproblem fit?" with embedding-aware checks, and anneals
admitted subproblems with a :class:`SimulatedAnnealingSampler`.

Capacity checks, cheapest first:

1. more variables than ``clique_capacity`` plus a failed heuristic
   embedding → does not fit;
2. at most ``clique_capacity`` variables → always fits: every
   interaction graph is a subgraph of the complete graph, and Chimera
   hosts :math:`K_{tm}` natively (Choi's TRIAD,
   :func:`repro.annealing.clique_embedding.chimera_clique_embedding`);
   for Pegasus the bound is the native-clique size ``12 m - 10``
   [Boothby et al. 2020];
3. otherwise the CMR-style minor-embedding heuristic
   (:func:`repro.annealing.embedding.find_embedding`) gets one
   deterministic attempt on the working graph.

Verdicts are cached per interaction-graph fingerprint, so the
decomposition loop pays the embedding check once per distinct block
shape, not once per round.

The anneal itself runs on the *logical* model (an idealized, chain-
break-free simulation): embedding gates admission, exactly like the
capacity experiments in :mod:`repro.experiments.mqo_annealer`, but the
sample quality is that of the logical SA sweep — which is what keeps
fleet-mode results comparable (and pinnable bit-identical) against the
plain hybrid solver.

Determinism contract: :meth:`AnnealerDevice.solve_seed` derives the
per-(device, subproblem) seed from the device *spec* (family, size,
sweep count — not its index or name) and the subproblem's content
fingerprint via the harness SHA-256 scheme.  Two homogeneous devices
therefore assign the same seed to the same subproblem, which is what
makes fleet results bit-identical regardless of fleet size or dispatch
order.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.annealing.chimera import chimera_graph
from repro.annealing.clique_embedding import max_native_clique
from repro.annealing.embedding import find_embedding
from repro.annealing.pegasus import pegasus_graph
from repro.annealing.simulated_annealing import SimulatedAnnealingSampler
from repro.exceptions import ConfigurationError, EmbeddingError
from repro.harness import derive_seed
from repro.qubo.bqm import BinaryQuadraticModel

__all__ = ["AnnealerDevice", "bqm_fingerprint", "graph_fingerprint"]

_FAMILIES = ("chimera", "pegasus")


def bqm_fingerprint(bqm: BinaryQuadraticModel) -> str:
    """Content hash of a model (vartype, offset, biases; exact floats).

    Stable across processes and ``PYTHONHASHSEED`` — orderings
    tie-break on ``str(variable)`` like everything else in the
    decomposition stack.
    """
    linear = sorted((str(v), repr(bias)) for v, bias in bqm.linear.items())
    quadratic = sorted(
        (*sorted((str(u), str(v))), repr(bias))
        for u, v, bias in bqm.interactions()
    )
    material = f"{bqm.vartype.name}|{bqm.offset!r}|{linear!r}|{quadratic!r}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def graph_fingerprint(graph: nx.Graph) -> str:
    """Content hash of an interaction graph (nodes + edges only)."""
    nodes = sorted(str(v) for v in graph.nodes)
    edges = sorted(tuple(sorted((str(u), str(v)))) for u, v in graph.edges)
    material = f"{nodes!r}|{edges!r}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class AnnealerDevice:
    """A simulated annealer bound to one hardware working graph.

    Parameters
    ----------
    name:
        Display name (``fleet-0``, ...).  Not part of the seed
        derivation — see :meth:`spec_key`.
    family:
        ``"chimera"`` (``C(m, m, t)``) or ``"pegasus"`` (``P(m)``).
    m, t:
        Topology size; ``t`` is the Chimera shore size (ignored for
        Pegasus).
    num_sweeps, beta_range:
        Annealing schedule of the device's sampler.
    embed_tries, embed_rounds:
        Effort knobs of the minor-embedding fallback check.
    """

    def __init__(
        self,
        name: str = "annealer",
        family: str = "chimera",
        m: int = 4,
        t: int = 4,
        num_sweeps: int = 200,
        beta_range: Optional[Tuple[float, float]] = None,
        embed_tries: int = 1,
        embed_rounds: int = 15,
    ) -> None:
        if family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown device family {family!r}; expected one of {_FAMILIES}"
            )
        if m < 1 or (family == "pegasus" and m < 2):
            raise ConfigurationError(f"device size m={m} is too small for {family}")
        if t < 1:
            raise ConfigurationError("shore size t must be positive")
        self.name = str(name)
        self.family = family
        self.m = int(m)
        self.t = int(t)
        self.num_sweeps = int(num_sweeps)
        self.beta_range = beta_range
        self.embed_tries = int(embed_tries)
        self.embed_rounds = int(embed_rounds)
        self.sampler = SimulatedAnnealingSampler(
            num_sweeps=num_sweeps, beta_range=beta_range
        )
        self._working_graph: Optional[nx.Graph] = None
        self._fit_cache: Dict[str, bool] = {}
        self._lock = threading.Lock()
        # dispatch accounting (fed into fleet stats / the routing model)
        self.dispatches = 0
        self.busy_seconds = 0.0

    # ------------------------------------------------------------------
    def spec_key(self) -> str:
        """Canonical device-*model* identity used for seed derivation.

        Deliberately excludes the device name/index: homogeneous
        devices share the key, so which of them runs a subproblem
        cannot change the result.
        """
        return (
            f"{self.family}-{self.m}-{self.t}-"
            f"{self.num_sweeps}-{self.beta_range!r}"
        )

    @property
    def clique_capacity(self) -> int:
        """Largest variable count guaranteed to embed (native clique)."""
        if self.family == "chimera":
            return max_native_clique(self.m, self.t)
        # Pegasus P(m) hosts K_{12m-10} natively [Boothby et al. 2020]
        return 12 * self.m - 10

    def working_graph(self) -> nx.Graph:
        """The device's hardware graph (built lazily, then cached)."""
        if self._working_graph is None:
            if self.family == "chimera":
                self._working_graph = chimera_graph(self.m, self.m, self.t)
            else:
                self._working_graph = pegasus_graph(self.m)
        return self._working_graph

    @property
    def num_qubits(self) -> int:
        return self.working_graph().number_of_nodes()

    # ------------------------------------------------------------------
    def fits(self, bqm: BinaryQuadraticModel) -> bool:
        """Embedding-aware admission: does this subproblem fit here?

        Subgraphs of the native clique always fit; anything larger gets
        one deterministic minor-embedding attempt on the working graph.
        Verdicts are memoized per interaction-graph fingerprint.
        """
        n = bqm.num_variables
        if n == 0:
            return True
        if n <= self.clique_capacity:
            return True
        if n > self.num_qubits:
            return False
        source = bqm.interaction_graph()
        source.remove_edges_from(nx.selfloop_edges(source))
        key = graph_fingerprint(source)
        with self._lock:
            cached = self._fit_cache.get(key)
        if cached is not None:
            return cached
        embedding = find_embedding(
            source,
            self.working_graph(),
            tries=self.embed_tries,
            improvement_rounds=self.embed_rounds,
            seed=derive_seed(0, "repro.annealers.embed", {"graph": key}),
            stop_at_first=True,
        )
        verdict = embedding is not None
        with self._lock:
            self._fit_cache[key] = verdict
        return verdict

    def solve_seed(self, root_seed: int, fingerprint: str) -> int:
        """The deterministic per-(device spec, subproblem) solve seed."""
        return derive_seed(
            int(root_seed),
            "repro.annealers.dispatch",
            {"device": self.spec_key(), "subproblem": fingerprint},
        )

    def sample(
        self,
        bqm: BinaryQuadraticModel,
        num_reads: int,
        root_seed: int,
    ) -> tuple:
        """Anneal one admitted subproblem; returns ``(sample, energy)``.

        Raises :class:`~repro.exceptions.EmbeddingError` when the
        subproblem does not embed on this device — sizing subproblems
        to capacity is the dispatcher's job, so reaching this is a bug
        in the caller, not a degradation path.
        """
        if bqm.num_variables == 0:
            return {}, float(bqm.offset)
        if not self.fits(bqm):
            raise EmbeddingError(
                f"subproblem with {bqm.num_variables} variables does not embed "
                f"on device {self.name!r} ({self.family} m={self.m} t={self.t}, "
                f"clique capacity {self.clique_capacity})"
            )
        seed = self.solve_seed(root_seed, bqm_fingerprint(bqm))
        start = time.perf_counter()
        sample_set = self.sampler.sample(bqm, num_reads=num_reads, seed=seed)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.dispatches += 1
            self.busy_seconds += elapsed
        best = sample_set.first
        return dict(best.sample), float(best.energy)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "m": self.m,
            "t": self.t,
            "num_qubits": self.num_qubits,
            "clique_capacity": self.clique_capacity,
            "num_sweeps": self.num_sweeps,
            "dispatches": self.dispatches,
            "busy_seconds": self.busy_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AnnealerDevice({self.name!r}, {self.family}, m={self.m}, "
            f"t={self.t}, capacity={self.clique_capacity})"
        )
