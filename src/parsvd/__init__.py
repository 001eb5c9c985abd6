"""Streaming and distributed truncated SVD for tall snapshot matrices.

The package covers three ways of getting the K leading left singular
vectors (modes) of a matrix too large or too spread out to factor directly:

* streaming: fold column batches into a fixed-size state (`streaming`),
  each rank holding its rows of them; a serial stream is a world of one,
  RankContext(0, 1)
* distributed: row-partitioned one-shot assembly (APMOS) and a tall-skinny
  QR across ranks that talk through a small message layer (`dsvd`, `comm`)
* randomized: Gaussian-sketch low-rank SVD as a drop-in kernel (`linalg`)

plus an analytical Burgers snapshot generator (`datagen`), a binary matrix
file format with CSV/SVG emitters (`io`), and a command-line front end
(`cli`).
"""

import os
import sys

# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it: an idle
# worker spins for 2^N clock ticks before it sleeps. Ranks that run one BLAS
# thread never wake the workers, so OpenBLAS's N = 28 (0.13 s at 2 GHz) is
# CPU burnt for nothing; N = 24 (8 ms) still outlasts the gaps inside one
# threaded call. A value the user set, or one numpy has read already, stays.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")

from .comm import (CommStats, RankContext, broadcast, gather, recv,
                   run_simulated, send, tcp_context_from_env)
from .datagen import (BurgersConfig, burgers_blocks, burgers_matrix,
                      burgers_solution, partition_bounds,
                      synthetic_spectrum_matrix)
from .dsvd import (ApmosConfig, apmos, gather_modes, generate_right_vectors,
                   parallel_qr)
from .errors import (CapacityError, CollectiveTimeout, ConfigError,
                     ConvergenceError, DegenerateModeError,
                     MatrixFormatError, ProtocolError)
from .io import (BatchSource, read_matrix_header, read_submatrix,
                 write_matrix_blocks, write_mode_svg, write_modes_csv,
                 write_singular_values_csv)
from .linalg import (QrResult, RandomSketchConfig, SvdResult,
                     aligned_mode_difference, low_rank_svd, qr_factor,
                     randomized_range, svd_full)
from .streaming import (StreamConfig, StreamState, stream_all,
                        stream_incorporate)

__version__ = "0.1.0"
