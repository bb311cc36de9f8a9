"""Seeded raw-log generator with planted structure.

Writes ``<out>/input.txt`` (whitespace-separated ``user item time`` lines, the
only thing the program reads) and ``<out>/truth.npz`` (what the generator
planted, read only by the benchmark's checks). The same workload and seed
give byte-identical files.

    python3 perfbench/gen.py --workload train-euler --seed 1 --out perfbench/out/x
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, DataSpec

_CHUNK = 128  # users per affinity block; bounds memory on wide catalogs


def _core_interactions(spec: DataSpec, rng):
    """Items of every core user, drawn without replacement by Gumbel top-k, in time order."""
    user_f = rng.normal(size=(spec.users, spec.factors))
    item_f = rng.normal(size=(spec.items, spec.factors))
    item_f /= np.linalg.norm(item_f, axis=1, keepdims=True) / np.sqrt(spec.factors)
    ranks = rng.permutation(spec.items)
    log_pop = -spec.pop_alpha * np.log1p(ranks)
    extra = np.floor(rng.exponential(spec.mean_extra, size=spec.users)).astype(np.int64)
    counts = np.minimum(spec.min_per_user + extra, min(spec.max_per_user, spec.items))
    scale = spec.affinity / np.sqrt(spec.factors)
    users, items = [], []
    for lo in range(0, spec.users, _CHUNK):
        hi = min(lo + _CHUNK, spec.users)
        logits = scale * (user_f[lo:hi] @ item_f.T) + log_pop
        logits += rng.gumbel(size=logits.shape)
        width = int(counts[lo:hi].max())
        top = np.argpartition(-logits, width - 1, axis=1)[:, :width]
        for row in range(hi - lo):
            # ascending perturbed affinity: a user's latest items are its strongest tastes
            ranked = top[row][np.argsort(logits[row, top[row]])]
            chosen = ranked[ranked.size - counts[lo + row]:]
            users.append(np.full(chosen.size, lo + row, dtype=np.int64))
            items.append(chosen.astype(np.int64))
    return np.concatenate(users), np.concatenate(items), log_pop


def _user_times(rng, users, tie_share):
    """Increasing per-user timestamps; some users get their last two tied."""
    order = np.argsort(users, kind="stable")
    users = users[order]
    gaps = rng.integers(1, 100_000, size=users.size)
    starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
    lengths = np.diff(np.r_[starts, users.size])
    base = rng.integers(1_000_000_000, 1_500_000_000, size=starts.size)
    times = np.cumsum(gaps)
    times -= np.repeat(times[starts] - gaps[starts], lengths)
    times += np.repeat(base, lengths)
    ends = starts + lengths - 1
    tied = ends[(rng.random(ends.size) < tie_share) & (lengths >= 2)]
    times[tied] = times[tied - 1]
    out = np.empty_like(times)
    out[order] = times
    return out


def generate(spec: DataSpec, seed: int, workload_tag: int = 0):
    """Return (lines, truth) for one spec and seed."""
    rng = np.random.default_rng([seed, workload_tag])
    k = spec.k
    users, items, log_pop = _core_interactions(spec, rng)

    pop = np.exp(log_pop - log_pop.max())
    sub_users = np.arange(spec.users, spec.users + spec.sub_k_users, dtype=np.int64)
    rare_items = np.arange(spec.items, spec.items + spec.rare_items, dtype=np.int64)
    # Sub-k users draw popular items; rare items go to random core users. Both
    # draws are with replacement and then deduplicated, which keeps every
    # planted degree in [1, k).
    su = np.repeat(sub_users, rng.integers(1, k, size=sub_users.size))
    cum = np.cumsum(pop)
    si = np.minimum(np.searchsorted(cum, rng.random(su.size) * cum[-1], side="right"),
                    spec.items - 1).astype(np.int64)
    ri = np.repeat(rare_items, rng.integers(1, k, size=rare_items.size))
    ru = rng.integers(spec.users, size=ri.size).astype(np.int64)
    width = spec.items + spec.rare_items
    planted = np.unique(np.concatenate([su * width + si, ru * width + ri]))
    users = np.concatenate([users, planted // width])
    items = np.concatenate([items, planted % width])
    times = _user_times(rng, users, spec.tie_share)

    n_dup = int(round(spec.duplicate_share * users.size))
    dup_of = rng.integers(users.size, size=n_dup)
    dup_times = np.maximum(times[dup_of] + rng.integers(-50_000, 50_000, size=n_dup), 0)
    earliest = times.copy()
    np.minimum.at(earliest, dup_of, dup_times)

    line_u = np.concatenate([users, users[dup_of]])
    line_i = np.concatenate([items, items[dup_of]])
    line_t = np.concatenate([times, dup_times])
    lines = [f"u{u} i{i} {t}" for u, i, t in zip(line_u.tolist(), line_i.tolist(), line_t.tolist())]
    bad_u = rng.integers(spec.users, size=spec.malformed).tolist()
    bad_i = rng.integers(spec.items, size=spec.malformed).tolist()
    for n, (u, i) in enumerate(zip(bad_u, bad_i)):
        kind = n % 3
        if kind == 0:
            lines.append(f"u{u} i{i}")
        elif kind == 1:
            lines.append(f"u{u} i{i} t{n}")
        else:
            lines.append(f"u{u} i{i} -{n + 1}")
    order = rng.permutation(len(lines))
    lines = [lines[j] for j in order.tolist()]

    truth = {
        "users": users,
        "items": items,
        "times": earliest,
        "parsed": np.int64(users.size + n_dup),
        "duplicates": np.int64(n_dup),
        "malformed": np.int64(spec.malformed),
        "sub_k_users": sub_users,
        "rare_items": rare_items,
        "k": np.int64(k),
    }
    return lines, truth


def write(workload_name: str, seed: int, out: Path) -> None:
    names = sorted(WORKLOADS)
    spec = WORKLOADS[workload_name].data
    # Workloads sharing a spec share the tag, so they see the same data for a seed.
    tag = min(names.index(n) for n in names if WORKLOADS[n].data == spec)
    lines, truth = generate(spec, seed, tag)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "input.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    np.savez(out / "truth.npz", **truth)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    write(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
