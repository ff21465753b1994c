"""Quantum-annealing substrate (D-Wave Ocean analogue).

Provides the pieces of the Ocean SDK the paper's join-ordering
evaluation uses (Sec. 6.2.1, 6.3.5):

* exact generators for the **Chimera** and **Pegasus** hardware
  topologies (dwave_networkx analogue);
* a **minorminer-style heuristic embedder** mapping a problem's
  interaction graph onto a hardware graph via chains of physical
  qubits;
* a **simulated-annealing sampler** (neal analogue) plus an exact
  sampler for small models;
* **composites** that embed a model, sample it on a structured solver
  and resolve broken chains.
"""

from repro.annealing.sampleset import SampleSet
from repro.annealing.simulated_annealing import SimulatedAnnealingSampler
from repro.annealing.exact_sampler import ExactSampler
from repro.lazy import lazy_exports

# networkx-backed, so imported on first use: serving needs none of them
__getattr__ = lazy_exports(
    __name__,
    {
        "chimera_graph": "chimera",
        "pegasus_graph": "pegasus",
        "EmbeddingResult": "embedding",
        "find_embedding": "embedding",
        "EmbeddingComposite": "composites",
        "StructureComposite": "composites",
    },
)

__all__ = [
    "SampleSet",
    "chimera_graph",
    "pegasus_graph",
    "SimulatedAnnealingSampler",
    "ExactSampler",
    "EmbeddingResult",
    "find_embedding",
    "EmbeddingComposite",
    "StructureComposite",
]
