"""Command-line surface: data generation, coreset builds, audits, assignment.

Exit codes: 0 success, 2 usage error, 3 FAIL/INFEASIBLE propagated,
4 oracle cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys

from . import oracle
from .assignment import assignment_from_coreset, transfer_full
from .common import OracleCapError, UsageError, derive_seed, is_infeasible
from .coreset import build_auto, read_coreset, write_coreset
from .distributed import run_protocol
from .geometry import (GridHierarchy, Point, check_distinct, check_domain,
                       format_point, read_points, write_points)
from .params import PRACTICAL, THEORY, derive, derive_rounding_delta
from .streaming import StreamEngine, check_live, read_stream

EXIT_OK, EXIT_USAGE, EXIT_FAIL, EXIT_ORACLE_CAP = 0, 2, 3, 4


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CAPACORE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"CAPACORE_SEED must be an integer, got "
                             f"{env!r}") from None
    return 0


def _parse_params_mode(text: str):
    if text == THEORY:
        return THEORY, 1.0
    if text.startswith("practical:"):
        try:
            return PRACTICAL, float(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"practical scale must be a number, got "
                             f"{text!r}") from None
    if text == PRACTICAL:
        return PRACTICAL, 1.0
    raise UsageError(f"params mode must be 'theory' or 'practical:<scale>', "
                     f"got {text!r}")


def _resolve_delta(requested: int) -> int:
    Delta, rounded = derive_rounding_delta(requested)
    if rounded:
        print(f"warning: Delta {requested} rounded up to power of two {Delta}",
              file=sys.stderr)
    return Delta


def cmd_gen(args) -> int:
    seed = _seed_from(args)
    rng = random.Random(seed)
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    if args.d < 1:
        raise UsageError(f"--d must be at least 1, got {args.d}")
    if not 0 <= args.spread < math.inf:
        raise UsageError(f"--spread must be finite and at least 0, got "
                         f"{args.spread}")
    if args.kind == "gaussian" and args.clusters < 1:
        raise UsageError(f"--clusters must be at least 1, got {args.clusters}")
    Delta = _resolve_delta(args.Delta)
    header = [f"gen kind={args.kind} n={args.n} d={args.d} Delta={Delta} "
              f"clusters={args.clusters} spread={args.spread} seed={seed}"]
    pts = []
    if args.kind == "uniform":
        for i in range(args.n):
            coords = tuple(rng.randint(1, Delta) for _ in range(args.d))
            pts.append(Point(coords, i))
    else:
        margin = min(Delta // 4, max(1, math.ceil(2 * args.spread)))
        lo, hi = 1 + margin, max(1 + margin, Delta - margin)
        means = [tuple(rng.randint(lo, hi) for _ in range(args.d))
                 for _ in range(args.clusters)]
        for j, mean in enumerate(means):
            header.append(f"mean.{j}=" + ",".join(map(str, mean)))
        for i in range(args.n):
            mean = means[i % args.clusters]
            coords = tuple(
                min(Delta, max(1, round(rng.gauss(m, args.spread))))
                for m in mean)
            pts.append(Point(coords, i))
    write_points(args.out, pts, header)
    print(f"wrote {len(pts)} points to {args.out}")
    return EXIT_OK


def _derive_params(args, Delta: int):
    mode, scale = _parse_params_mode(args.params_mode)
    return derive(k=args.k, r=args.r, eps=args.eps, eta=args.eta,
                  Delta=Delta, d=args.d, mode=mode, scale=scale)


def cmd_build(args) -> int:
    seed = _seed_from(args)
    if args.mode == "dist" and args.machines < 1:
        raise UsageError(f"--machines must be at least 1, got {args.machines}")
    Delta = _resolve_delta(args.Delta)
    params = _derive_params(args, Delta)
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), Delta, args.d)
    # the builders reject points outside the domain themselves
    if args.mode == "stream":
        updates = read_stream(args.input)
        check_live(updates)
    else:
        points = read_points(args.input)
        check_distinct(points)
    if args.mode == "offline":
        coreset = build_auto(points, grid, params, seed,
                             exact_counts=args.exact_counts)
    elif args.mode == "stream":
        # the stream never holds more live points than it inserts
        n_max = sum(1 for _, s in updates if s > 0)
        engine = StreamEngine(params, grid, seed, backing=args.backing,
                              exact_counts=args.exact_counts, n_max=n_max)
        engine.process_stream(updates)
        coreset = engine.finalize()
    elif args.mode == "dist":
        shards = [points[i::args.machines] for i in range(args.machines)]
        coreset, comm = run_protocol(shards, params, seed, backing=args.backing,
                                     exact_counts=args.exact_counts)
        print(f"comm_bytes={comm}")
    else:
        raise UsageError(f"unknown mode {args.mode!r}")
    write_coreset(args.output, coreset)
    print(f"wrote coreset ({len(coreset)} points, o={coreset.meta.o}) "
          f"to {args.output}")
    return EXIT_OK


def cmd_eval(args) -> int:
    seed = _seed_from(args)
    points = read_points(args.input)
    coreset = read_coreset(args.coreset)
    params = coreset.meta.params
    check_domain(points, params.Delta, params.d)
    check_distinct(points)
    if args.center_samples < 1:
        raise UsageError(f"--center-samples must be at least 1, got "
                         f"{args.center_samples}")
    if args.brute_check < 0:
        raise UsageError(f"--brute-check must be at least 0, got "
                         f"{args.brute_check}")
    rng = random.Random(derive_seed(seed, "eval-centers"))
    center_sets = [oracle.sample_lattice(rng, params.Delta, params.d, params.k)
                   for _ in range(args.center_samples)]
    n, k = len(points), params.k
    if args.t_grid == "full":
        t_values = list(range(math.ceil(n / k), n + 1))
    elif args.t_grid == "auto":
        # bounded default: the exact evaluator is meant for small audits
        lo, hi = math.ceil(n / k), n
        step = max(1, math.ceil((hi - lo) / 15))
        t_values = list(range(lo, hi + 1, step))
    else:
        try:
            lo, hi, step = (int(x) for x in args.t_grid.split(":"))
        except ValueError:
            raise UsageError(f"--t-grid must be 'auto', 'full' or lo:hi:step "
                             f"with integers, got {args.t_grid!r}") from None
        if step <= 0:
            raise UsageError(f"--t-grid step must be positive, got {step}")
        t_values = list(range(lo, hi + 1, step))
    if not t_values:
        raise UsageError("empty capacity grid")
    report = oracle.sandwich_audit(points, coreset, center_sets, t_values,
                                   include_rounded=args.include_rounded)
    if args.brute_check:
        # cross-validate the first rows against the enumeration oracle;
        # exceeds the oracle cap (exit 4) on inputs larger than it allows
        for row in report.rows[:args.brute_check]:
            want = oracle.brute_partitions(points, center_sets[row.z_id],
                                           row.t, params.r)
            if want != row.cost_Q and \
                    abs(want - row.cost_Q) > 1e-9 * max(abs(want), 1.0):
                raise RuntimeError(
                    f"oracle cross-check failed at z={row.z_id} t={row.t}")
    report.write_csv(args.out, header_lines=[
        f"eval input={args.input} coreset={args.coreset} seed={seed} "
        f"center_samples={args.center_samples} t_grid={args.t_grid}",
        f"params: {params.serialize()}",
    ])
    for form in (oracle.SYMMETRIC_FORM, oracle.TWO_TIER_FORM):
        print(f"{form}: violations={report.violations(form)} "
              f"fraction={report.violation_fraction(form):.4f} "
              f"worst_ratio={report.worst_ratio(form):.6f}")
    print(f"wrote audit to {args.out}")
    return EXIT_OK


def cmd_assign(args) -> int:
    coreset = read_coreset(args.coreset)
    params = coreset.meta.params
    centers = read_points(args.centers)
    check_domain(centers, params.Delta, params.d)
    if args.full_input:
        full_points = read_points(args.full_input)
        check_domain(full_points, params.Delta, params.d)
        check_distinct(full_points)
    if len(centers) != params.k:
        print(f"warning: centers file has {len(centers)} centers, params say "
              f"k={params.k}", file=sys.stderr)
    integral, canonical, halfspaces = assignment_from_coreset(
        coreset, centers, args.capacity)
    if is_infeasible(integral):
        print("INFEASIBLE: total weight exceeds k * capacity", file=sys.stderr)
        return EXIT_FAIL
    if args.full_input:
        final = transfer_full(full_points, coreset, halfspaces, centers)
    else:
        final = canonical
    with open(args.out, "w") as fh:
        fh.write(f"% assign coreset={args.coreset} capacity={args.capacity!r} "
                 f"full_input={args.full_input}\n")
        for p in sorted(final.mapping, key=lambda q: q.sort_key()):
            fh.write(f"{format_point(p)} -> {final.mapping[p]}\n")
        fh.write(f"% cost={final.cost()!r}\n")
        fh.write("% size_vector=" +
                 ",".join(repr(v) for v in final.size_vector()) + "\n")
    print(f"wrote assignment for {len(final.mapping)} points to {args.out}")
    return EXIT_OK


def cmd_centers(args) -> int:
    """Demo plumbing: naive local-search center finder on a coreset."""
    seed = _seed_from(args)
    if args.k is not None and args.k < 1:
        raise UsageError(f"-k must be at least 1, got {args.k}")
    if args.iters < 0:
        raise UsageError(f"--iters must be at least 0, got {args.iters}")
    coreset = read_coreset(args.coreset)
    params = coreset.meta.params
    pts = coreset.points()
    weights = coreset.weights()
    if not pts:
        raise UsageError("cannot pick centers from an empty coreset")
    rng = random.Random(derive_seed(seed, "centers"))
    k = params.k if args.k is None else args.k
    candidates = sorted(set(pts), key=lambda p: p.sort_key())

    def cost_of(Z):
        return oracle.exact_cost(pts, Z, float("inf"), params.r, weights)

    current = rng.sample(candidates, min(k, len(candidates)))
    while len(current) < k:
        current.append(candidates[0])
    best = cost_of(current)
    improved = True
    rounds = 0
    while improved and rounds < args.iters:
        improved = False
        rounds += 1
        for i in range(len(current)):
            for cand in candidates:
                trial = list(current)
                trial[i] = cand
                val = cost_of(trial)
                if val < best - 1e-12:
                    best, current, improved = val, trial, True
    write_points(args.out, current, [f"centers k={k} cost={best!r}"])
    print(f"wrote {len(current)} centers (uncapacitated cost {best:.6g}) "
          f"to {args.out}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="capacore",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="synthesize point sets")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--Delta", type=int, default=8)
    g.add_argument("--kind", choices=("gaussian", "uniform"), default="gaussian")
    g.add_argument("--clusters", type=int, default=3)
    g.add_argument("--spread", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=None)
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build a coreset (offline/stream/dist)")
    b.add_argument("--input", required=True)
    b.add_argument("--output", required=True)
    b.add_argument("--mode", choices=("offline", "stream", "dist"),
                   default="offline")
    b.add_argument("--machines", type=int, default=2)
    b.add_argument("-k", type=int, required=True)
    b.add_argument("-r", type=float, default=2.0)
    b.add_argument("--eps", type=float, default=0.4)
    b.add_argument("--eta", type=float, default=0.4)
    b.add_argument("--Delta", type=int, required=True)
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--params-mode", default="practical:1e-6")
    b.add_argument("--exact-counts", action="store_true")
    b.add_argument("--backing", choices=("exact", "sketch"), default="exact")
    b.add_argument("--seed", type=int, default=None)
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("eval", help="sandwich audit of a coreset")
    e.add_argument("--input", required=True)
    e.add_argument("--coreset", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--center-samples", type=int, default=50)
    e.add_argument("--t-grid", default="auto",
                   help="'auto' (<=16 values), 'full', or lo:hi:step")
    e.add_argument("--include-rounded", action="store_true")
    e.add_argument("--brute-check", type=int, default=0)
    e.add_argument("--seed", type=int, default=None)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("assign", help="capacitated assignment from a coreset")
    a.add_argument("--coreset", required=True)
    a.add_argument("--centers", required=True)
    a.add_argument("--capacity", type=float, required=True)
    a.add_argument("--full-input", default=None)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_assign)

    c = sub.add_parser("centers", help="demo local-search center finder")
    c.add_argument("--coreset", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("-k", type=int, default=None)
    c.add_argument("--iters", type=int, default=20)
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(func=cmd_centers)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except OracleCapError as exc:
        print(f"oracle cap exceeded: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
