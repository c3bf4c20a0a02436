"""Meta-embedding cross-modal hashing for long-tailed multi-modal data.

Learns paired image/text embedding networks augmented with prototype
memory, quantizes the resulting meta features into fixed-length binary
codes by alternating continuous/discrete optimization, and evaluates
cross-modal retrieval with Hamming ranking and mean average precision.
"""

from . import (dataset, errors, experiment, gradcheck, hash_learn, meta_embed,
               retrieval, tensor)
