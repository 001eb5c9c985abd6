"""Stream a Burgers snapshot matrix through the incremental SVD.

Generates the analytical solution on a modest grid, feeds it to the
streaming update in 100-column batches, and prints how the estimated
leading singular values evolve against the one-shot decomposition.
The leading modes are written to an SVG next to this script.
"""

import os

import numpy as np

from parsvd import (BurgersConfig, RankContext, StreamConfig, burgers_matrix,
                    stream_all, svd_full, write_mode_svg)


def run(grid_points=2048, n_snapshots=800, k=5, batch=100, ff=1.0,
        buffer=30):
    config = BurgersConfig(grid_points=grid_points, n_snapshots=n_snapshots)
    a = burgers_matrix(config)
    print(f"snapshot matrix: {a.shape[0]} x {a.shape[1]}")

    # one rank, no connections: the serial stream, over column slices of a
    state, history = stream_all(
        RankContext(0, 1),
        [a[:, i:i + batch] for i in range(0, a.shape[1], batch)],
        StreamConfig(k_modes=k, forget_factor=ff, buffer_columns=buffer),
    )
    exact = svd_full(a)

    print(f"\nleading singular values after each batch (ff={ff}):")
    header = "batch " + " ".join(f"sigma_{i + 1:<9}" for i in range(k))
    print(header)
    for it, values in enumerate(history):
        print(f"{it + 1:5d} " + " ".join(f"{v:<15.6e}" for v in values))
    print("exact " + " ".join(f"{v:<15.6e}" for v in exact.s[:k]))

    rel = np.abs(state.singular_values - exact.s[:k]) / exact.s[:k]
    print(f"\nfinal relative error per value: {rel}")
    print(f"(the update carries K + {buffer} columns and reports K; with a")
    print(" buffer of 0 it truncates to K after every batch and discards")
    print(" tail energy the later batches needed: 2.6e-2 at the defaults)")

    out = os.path.join(os.path.dirname(__file__), "streaming_burgers_modes.svg")
    grid = np.linspace(0.0, config.length, grid_points)
    write_mode_svg(out, grid, state.modes)
    print(f"wrote {out}")


if __name__ == "__main__":
    run()
