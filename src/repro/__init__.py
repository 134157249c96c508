"""repro -- full reproduction of *Efficient Learning-Based Graph Simulation
for Temporal Graphs* (TGAE, ICDE 2025).

Sub-packages
------------
``repro.autograd``
    NumPy reverse-mode automatic differentiation (PyTorch substitute).
``repro.nn`` / ``repro.optim``
    Neural-network layers (incl. temporal graph attention) and optimizers.
``repro.graph``
    Temporal graph data structures, ego-graph sampling, bipartite batches.
``repro.datasets``
    Synthetic stand-ins for the paper's seven datasets + scalability grid.
``repro.metrics``
    Table III statistics, Eq. 10 comparison scores, motif MMD (Eq. 1).
``repro.core``
    TGAE itself: encoder, decoder, trainer, generator, ablation variants.
``repro.baselines``
    The ten comparison methods of Sec. V.
``repro.bench``
    The experiment harness regenerating every table and figure.

The batched ego-graph encoding pipeline
---------------------------------------
The hot path of both training and Sec. IV-G generation is encoding one
k-radius ego-graph per active temporal node:

* ``repro.graph.ego_graph_batch`` samples the ego-graphs of a whole group
  of centres in one vectorised pass over the incidence CSR; truncation
  draws are counter-hash words (``repro.rng.counter_hash``), so each
  ego-graph is a pure function of its centre and a 64-bit key;
* ``repro.graph.pack_ego_batch`` pads a slice of them into one
  ego-parallel batch (index tensors + masks) and
  ``repro.core.TGAEEncoder.encode_batch`` runs **one** vectorised encoder
  forward per slice -- numerically identical to encoding each ego-graph on
  its own.

``repro.graph.sample_ego_graph`` (one centre at a time) and
``repro.graph.build_bipartite_batch`` (the merged k-bipartite graphs of
Fig. 4) remain as reference implementations the tests compare against.

Generation draws every row of a chunk's score matrix in one vectorised
Gumbel top-k pass (sampling without replacement per temporal node).
"""

from .base import TemporalGraphGenerator
from .errors import (
    ConfigError,
    DatasetError,
    DegradeWarning,
    FaultInjected,
    GenerationError,
    GradientError,
    GraphFormatError,
    NotFittedError,
    PoolError,
    ReproError,
    ShapeError,
)
from .graph.temporal_graph import TemporalGraph

__version__ = "1.0.0"

__all__ = [
    "TemporalGraph",
    "TemporalGraphGenerator",
    "ReproError",
    "ShapeError",
    "GradientError",
    "GraphFormatError",
    "ConfigError",
    "DatasetError",
    "GenerationError",
    "NotFittedError",
    "PoolError",
    "FaultInjected",
    "DegradeWarning",
    "__version__",
]
