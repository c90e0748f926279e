"""Program side of the benchmark: s3harm calls in a fresh interpreter.

    python3 perfbench/child.py cli [--trace-out F --run-id R] -- ARGS...
    python3 perfbench/child.py highdeg --seed N --degrees 16 18 20 [--trace-out F --run-id R]

`cli` runs `s3harm.cli.main(ARGS)` and exists for the traced run; the
untraced run starts `python -m s3harm.cli` directly.  `highdeg` makes the
library calls of the highdeg-projector workload and prints one JSON
record per degree; checks.judge_highdeg judges them.  With --trace-out
the s3harm layers are wrapped after import and the trace document is
written to that file when the calls are done.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import tracing

N_POINTS = 4  # seeded random points per degree, plus N_POINTS // 2 products


def _distinct_lifts(deck) -> list:
    """Both factors of every deck element of both groups, once each up to sign."""
    import numpy as np

    mats = []
    for group in (deck.build_cyclic8(), deck.build_quaternion()):
        for el in group.elements:
            for factor in (el.pair.left, el.pair.right):
                m = factor.to_complex()
                if not any(np.allclose(m, x) or np.allclose(m, -x) for x in mats):
                    mats.append(m)
    return mats


def _rank(matrix) -> int:
    import numpy as np

    eigs = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)
    return int(np.sum(eigs > 0.5))


def _d_matrices(wigner, j: int, mats) -> tuple[list, float]:
    """D^j at each matrix and the largest unitarity error among them."""
    import numpy as np

    ds = [wigner.wigner_d(j, m) for m in mats]
    eye = np.eye(2 * j + 1)
    return ds, max(float(np.max(np.abs(d @ d.conj().T - eye))) for d in ds)


def _closed_products(mats, ds) -> tuple[float, int]:
    """Homomorphism error over every pair whose product is again in `mats`
    up to sign (D^j(-u) = D^j(u) at integer j), and the pairs checked."""
    import numpy as np

    err = 0.0
    pairs = 0
    for a, da in zip(mats, ds):
        for b, db in zip(mats, ds):
            ab = a @ b
            for c, dc in zip(mats, ds):
                if np.allclose(ab, c) or np.allclose(ab, -c):
                    err = max(err, float(np.max(np.abs(da @ db - dc))))
                    pairs += 1
                    break
    return err, pairs


def highdeg(seed: int, degrees: list[int]) -> dict:
    import numpy as np

    from s3harm import bases, deck, su2, wigner

    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((N_POINTS, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    records = []
    for j in degrees:
        start = time.perf_counter()
        averaged, closed = bases.projector_c8(j)
        c8 = {
            "route_diff": float(np.max(np.abs(averaged - closed))),
            "rank": _rank(averaged),
            "multiplicity": bases.multiplicity_c8(j),
        }
        del averaged, closed
        q_averaged, q_closed = bases.projector_q(j)
        q = {
            "route_diff": float(np.max(np.abs(q_averaged - q_closed))),
            "rank": _rank(q_averaged) * (2 * j + 1),
            "multiplicity": bases.multiplicity_q(j),
        }
        points = [su2.matrix_from_point(x) for x in pts]
        products = [points[k] @ points[k + 1] for k in range(0, N_POINTS - 1, 2)]
        ds, unit_p = _d_matrices(wigner, j, points)
        dprod, unit_q = _d_matrices(wigner, j, products)
        hom_p = max(
            float(np.max(np.abs(ds[k] @ ds[k + 1] - dprod[k // 2])))
            for k in range(0, N_POINTS - 1, 2)
        )
        lifts = _distinct_lifts(deck)
        dlift, unit_l = _d_matrices(wigner, j, lifts)
        hom_l, pairs = _closed_products(lifts, dlift)
        records.append(
            {
                "j": j,
                "call_s": time.perf_counter() - start,
                "c8": c8,
                "q": q,
                "unitarity_err": max(unit_p, unit_q, unit_l),
                "homomorphism_err": max(hom_p, hom_l),
                "points": N_POINTS + len(products),
                "lift_pairs": pairs,
            }
        )
    return {"degrees": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("cli", "highdeg"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--degrees", type=int, nargs="*", default=[])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--run-id", default="untraced")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    start = time.perf_counter()
    import s3harm.cli

    import_s = time.perf_counter() - start
    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer(args.run_id)
        tracer.import_s = import_s
        tracing.install(tracer)
    try:
        if args.mode == "cli":
            code = s3harm.cli.main(cli_args)
        else:
            sys.stdout.write(json.dumps(highdeg(args.seed, args.degrees)) + "\n")
            code = 0
    finally:
        if tracer is not None:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.document(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
