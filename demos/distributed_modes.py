"""Distributed mode assembly on a simulated four-rank world.

Each rank holds a horizontal slab of the Burgers snapshot matrix, computes
truncated right vectors locally, and the root assembles global modes from
the gathered pieces. The result is compared against a direct SVD of the
full matrix, and the byte counters show how little actually moved.
"""

import numpy as np

from parsvd import (ApmosConfig, BurgersConfig, aligned_mode_difference,
                    apmos, burgers_matrix, gather_modes, partition_bounds,
                    run_simulated, svd_full)

WORLD = 4
R1, R2, K = 50, 5, 2


def rank_body(ctx, a):
    lo, hi = partition_bounds(a.shape[0], ctx.world_size)[ctx.rank]
    print(f"rank {ctx.rank}: rows {lo}..{hi} ({hi - lo} of {a.shape[0]})")
    config = ApmosConfig(local_rank=R1, global_rank=R2, k_modes=K)
    res = apmos(ctx, a[lo:hi], config)
    stacked = gather_modes(ctx, res.u)
    return {
        "modes": stacked,
        "values": res.s,
        "sent": ctx.stats.bytes_sent,
        "received": ctx.stats.bytes_received,
    }


def run():
    a = burgers_matrix(BurgersConfig(grid_points=2048, n_snapshots=800))
    outcomes = run_simulated(WORLD, lambda ctx: rank_body(ctx, a))

    direct = svd_full(a, want_vt=False)
    modes = outcomes[0]["modes"]
    diff = aligned_mode_difference(modes, direct.u[:, :K])
    print(f"\nmode max-abs error vs direct SVD: {np.max(diff):.3e}")
    print(f"singular values (assembled): {outcomes[0]['values'][:K]}")
    print(f"singular values (direct):    {direct.s[:K]}")

    print("\ntraffic per rank (bytes):")
    for rank, out in enumerate(outcomes):
        print(f"  rank {rank}: sent {out['sent']:7d}  received {out['received']:7d}")
    print("each worker ships one N x r1 block regardless of its row count,")
    print("so the exchange stays flat as the spatial grid grows")


if __name__ == "__main__":
    run()
