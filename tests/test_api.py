"""The public names of the package."""

import types

import parsvd

# Every public, non-module name that `import parsvd` exports. A name added
# or removed must be added or removed here too: ROADMAP item 12 asks that
# a public name have a caller beyond the tests, or be documented API.
# Three stay public only because the benchmark reads them by name:
# stream_incorporate (perfbench's update spans), send and recv (its frame
# counters).
PUBLIC = {
    "ApmosConfig", "BatchSource", "BurgersConfig", "CapacityError",
    "CollectiveTimeout", "CommStats", "ConfigError", "ConvergenceError",
    "DegenerateModeError", "MatrixFormatError", "ProtocolError", "QrResult",
    "RandomSketchConfig", "RankContext", "StreamConfig", "StreamState",
    "SvdResult", "aligned_mode_difference", "apmos", "broadcast",
    "burgers_blocks", "burgers_matrix", "burgers_solution", "gather",
    "gather_modes", "generate_right_vectors", "low_rank_svd", "parallel_qr",
    "partition_bounds", "qr_factor", "randomized_range",
    "read_matrix_header", "read_submatrix", "recv", "run_simulated", "send",
    "stream_all", "stream_incorporate", "svd_full",
    "synthetic_spectrum_matrix", "tcp_context_from_env",
    "write_matrix_blocks", "write_mode_svg", "write_modes_csv",
    "write_singular_values_csv",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(parsvd).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert sorted(exported - PUBLIC) == [], "exported but not listed"
    assert sorted(PUBLIC - exported) == [], "listed but not exported"
