"""Meta-embedding cross-modal hashing for long-tailed multi-modal data.

Learns paired image/text embedding networks augmented with prototype
memory, quantizes the resulting meta features into fixed-length binary
codes by alternating continuous/discrete optimization, and evaluates
cross-modal retrieval with Hamming ranking and mean average precision.
"""

from .dataset import (LongTailSpec, MultiModalDataset, build_affinity,
                      label_masks, load_dataset, save_dataset, split_head_tail,
                      split_query_retrieval, synthesize_long_tailed,
                      trim_labels)
from .errors import (ConfigError, EvaluationError, FormatError, LtcmhError,
                     ShapeError, TrainingError)
from .hash_learn import (HashModel, TrainConfig, balance_loss, grad_Vx, grad_Vy,
                         load_model, nll_loss, objective, pairwise_phi,
                         quantization_loss, save_model, total_loss, train,
                         update_B)
from .meta_embed import (MetaEmbedder, PrototypeBank, compute_prototypes,
                         embed_backward, embed_batch, eta_ratio)
from .retrieval import (BinaryCodeMatrix, RetrievalResult, average_precision,
                        binarize, evaluate, hamming_matrix, load_codes,
                        save_codes)
from .tensor import (FeedForwardNet, finite_diff_grad, sgd_step, sigmoid,
                     softplus)

__version__ = "0.1.0"
