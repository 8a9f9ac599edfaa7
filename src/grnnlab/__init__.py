"""grnnlab: dynamic-graph recurrent network training lab.

Per-node GRU hidden states updated on each interaction event, trained with
full or truncated backprop-through-time under three event-batching
strategies, plus a synthetic memory-horizon task and a link-ranking
benchmark pipeline.
"""

from .accumulator import GradientAccumulator
from .adamw import AdamwState, adamw_step
from .batching import make_batches_fixed, make_batches_tbatch
from .dynamics import StateDropout, StepRecord, run_batch
from .engine import (
    BatchingConfig,
    build_batches,
    forward_epoch,
    loss_bce,
    loss_mse,
    train_epoch,
)
from .errors import (
    ConfigError,
    DataError,
    IngestionError,
    NumericalError,
    ParameterError,
    StructuralError,
)
from .events import Batch, Event, NodeStateStore
from .gradcheck import epoch_gradient_check, finite_diff_check
from .gru import GruParameters, gru_backward, gru_forward, init_gru_parameters
from .mlp import MlpParameters, init_mlp_parameters, mlp_backward, mlp_forward
from .model import GrnnModel, init_model
from .rng import Rng
from .synthtask import (
    OracleState,
    SyntheticConfig,
    baseline_mse,
    generate_epoch,
    oracle_step,
)

__version__ = "0.1.0"
