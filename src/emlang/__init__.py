"""Symbol-bottleneck classification with conductance-based symbol attribution.

A sender network compresses input features into logits over a symbol
vocabulary, a Gumbel-softmax channel emits a (relaxed) one-hot symbol, and a
receiver network classifies from the symbol alone. Integrated gradients and
neuron conductance trace each emitted symbol back to the input features.
"""

from .attribution import (
    AttributionConfig,
    ConductanceReport,
    integrated_gradients,
    neuron_conductance,
    per_symbol_report,
)
from .classifier import (
    EvalReport,
    ModelGraph,
    TrainConfig,
    TrainLog,
    build_model,
    checkpoint_names,
    checkpoint_standardization,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .data import Dataset, SynthSpec, generate_synthetic, load_csv, save_csv, split
from .gumbel import GumbelSoftmaxSampler, gumbel_noise, hard_decode
from .nn import AdamState, DenseLayer, adam_step, softmax, softmax_cross_entropy

__all__ = [
    "AdamState",
    "AttributionConfig",
    "ConductanceReport",
    "Dataset",
    "DenseLayer",
    "EvalReport",
    "GumbelSoftmaxSampler",
    "ModelGraph",
    "SynthSpec",
    "TrainConfig",
    "TrainLog",
    "adam_step",
    "build_model",
    "checkpoint_names",
    "checkpoint_standardization",
    "evaluate",
    "generate_synthetic",
    "gumbel_noise",
    "hard_decode",
    "integrated_gradients",
    "load_checkpoint",
    "load_csv",
    "neuron_conductance",
    "per_symbol_report",
    "save_checkpoint",
    "save_csv",
    "softmax",
    "softmax_cross_entropy",
    "split",
    "train",
]
