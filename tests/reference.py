"""Independent reference implementations used as test oracles.

Everything here recomputes results directly from definitions (merge costs
from raw coordinates, partitions by enumeration) rather than reusing any
production code path, so agreement is meaningful.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np

from tsagg.errors import DataError


def ward_merge_cost(samples, members_a, members_b):
    """Within-cluster SSE increase of merging two clusters, from scratch."""
    a = samples[list(members_a)]
    b = samples[list(members_b)]
    na, nb = len(a), len(b)
    diff = a.mean(axis=0) - b.mean(axis=0)
    return na * nb / (na + nb) * float(diff @ diff)


def naive_ward(samples, connectivity=None):
    """O(n^3) agglomeration recomputing every candidate cost per step.

    Returns the merge list [(id_a, id_b, cost, size)] with the same id and
    tie-break conventions as the production code: samples are 0..n-1, the
    cluster born in merge m is n+m, and among equal costs the smallest
    (id_a, id_b) pair wins. cost is reported on the doubled scale, where
    two singletons merge at their squared Euclidean distance.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    n = samples.shape[0]
    active = {i: frozenset([i]) for i in range(n)}
    merges = []
    step = 0
    while len(active) > 1:
        best = None
        for id_a, id_b in itertools.combinations(sorted(active), 2):
            if connectivity is not None and not any(
                    connectivity[i, j]
                    for i in active[id_a] for j in active[id_b]):
                continue
            cost = 2.0 * ward_merge_cost(samples, active[id_a], active[id_b])
            key = (cost, id_a, id_b)
            if best is None or key < best:
                best = key
        if best is None:
            break  # remaining clusters are in different components
        cost, id_a, id_b = best
        new_id = n + step
        active[new_id] = active.pop(id_a) | active.pop(id_b)
        merges.append((id_a, id_b, cost, len(active[new_id])))
        step += 1
    return merges


def dense_ward(samples):
    """The dense Lance-Williams period linkage that the cached one replaced.

    Two (2n - 1)^2 matrices hold the distances and an upper-triangle search
    copy; every merge takes one argmin over the whole search matrix, whose
    row-major order is the (cost, id_a, id_b) tie rule. Returns the merges
    as arrays: the (id_a, id_b) pairs, the costs and the new cluster sizes.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    n = samples.shape[0]
    n_merges = n - 1
    total = n + n_merges

    size = np.zeros(total, dtype=np.float64)
    size[:n] = 1.0
    # full symmetric Lance-Williams distances among active clusters
    dist = np.full((total, total), np.inf)
    dist[:n, :n] = sq_distance_matrix(samples)
    # search matrix: upper triangle of active pairs, inf elsewhere
    search = np.full((total, total), np.inf)
    iu = np.triu_indices(n, k=1)
    search[:n, :n][iu] = dist[:n, :n][iu]

    ids = np.empty((n_merges, 2), dtype=np.int64)
    costs = np.empty(n_merges)
    sizes = np.empty(n_merges, dtype=np.int64)
    for step in range(n_merges):
        flat = int(np.argmin(search))
        i, j = divmod(flat, total)
        q = n + step
        size[q] = size[i] + size[j]
        ids[step], costs[step], sizes[step] = (i, j), dist[i, j], size[q]

        others = np.flatnonzero(size[:q] > 0)
        others = others[(others != i) & (others != j)]
        nm = size[others]
        new_d = ((size[i] + nm) * dist[i, others]
                 + (size[j] + nm) * dist[j, others]
                 - nm * dist[i, j]) / (size[i] + size[j] + nm)
        dist[q, others] = new_d
        dist[others, q] = new_d
        search[i, :] = np.inf
        search[:, i] = np.inf
        search[j, :] = np.inf
        search[:, j] = np.inf
        # inactive clusters keep an inf distance to q
        search[:q, q] = dist[:q, q]
        size[i] = size[j] = 0.0
    return ids, costs, sizes


def chain_matrix(n):
    """Connectivity of a chain: i may merge with i - 1 and i + 1."""
    m = np.zeros((n, n), dtype=bool)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = True
    return m


def naive_roots(n, merges, k):
    """Each sample's root node after the first n - k merges, by walking up."""
    parent = {}
    for m, (id_a, id_b, _, _) in enumerate(merges[:n - k]):
        parent[id_a] = n + m
        parent[id_b] = n + m
    roots = []
    for i in range(n):
        r = i
        while r in parent:
            r = parent[r]
        roots.append(r)
    return roots


def naive_cut(n, merges, k):
    """Partition after the first n - k merges, labelled by first appearance."""
    labels = {}
    return np.array([labels.setdefault(r, len(labels))
                     for r in naive_roots(n, merges, k)])


def naive_nodes(n, merges, k):
    """The root node of each cluster of :func:`naive_cut`, in label order."""
    return np.array(list(dict.fromkeys(naive_roots(n, merges, k))))


def sse_of_partition(samples, assignment):
    """Total within-cluster sum of squares."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples.reshape(-1, 1)
    total = 0.0
    for c in np.unique(assignment):
        block = samples[assignment == c]
        total += float(((block - block.mean(axis=0)) ** 2).sum())
    return total


def all_partitions(n, k):
    """Every assignment of n items into exactly k non-empty labelled-free blocks."""
    for labels in itertools.product(range(k), repeat=n):
        # canonical form: first appearance order 0,1,2,... avoids relabelled dupes
        seen = {}
        canon = tuple(seen.setdefault(v, len(seen)) for v in labels)
        if canon == labels and len(seen) == k:
            yield np.array(labels)


def contiguous_partitions(n, k):
    """Every split of 0..n-1 into k contiguous blocks."""
    for cuts in itertools.combinations(range(1, n), k - 1):
        assignment = np.zeros(n, dtype=int)
        for c in cuts:
            assignment[c:] += 1
        yield assignment


def best_partition(samples, k, contiguous=False):
    """Minimum-SSE partition by exhaustive enumeration."""
    gen = contiguous_partitions(len(samples), k) if contiguous else all_partitions(len(samples), k)
    best, best_sse = None, np.inf
    for assignment in gen:
        sse = sse_of_partition(samples, assignment)
        if sse < best_sse:
            best, best_sse = assignment, sse
    return best, best_sse


def sq_distance_matrix(points):
    """d[i, j] = sum_a (x[i, a] - x[j, a])^2, summed in column order.

    That is the order of scipy's ``cdist(..., "sqeuclidean")``; a sum over
    the attribute axis in one call rounds differently once it pairs terms.
    """
    points = np.asarray(points, dtype=np.float64)
    d = np.zeros((points.shape[0], points.shape[0]))
    for a in range(points.shape[1]):
        d += (points[:, None, a] - points[None, :, a]) ** 2
    return d


def distribution_group_means(member_profiles):
    """Grouped duration curve of one cluster, one attribute: (steps,).

    member_profiles: (n_members, steps) array. All member values are pooled
    and sorted descending, then each consecutive run of n_members values is
    averaged.
    """
    member_profiles = np.asarray(member_profiles, dtype=np.float64)
    n_members, steps = member_profiles.shape
    pooled_desc = np.sort(member_profiles.reshape(-1))[::-1]
    return np.array([
        np.mean(pooled_desc[i * n_members:(i + 1) * n_members]) for i in range(steps)
    ])


def distribution_profile(member_profiles):
    """Step-by-step distribution representative for one cluster, one attribute.

    member_profiles: (n_members, steps) array. Follows the construction
    literally: pooled descending sort, groups-of-n_members means, centroid
    rank order, place i-th group mean at the step of the i-th largest
    centroid value.
    """
    member_profiles = np.asarray(member_profiles, dtype=np.float64)
    group_means = distribution_group_means(member_profiles)
    centroid = member_profiles.mean(axis=0)
    order = np.argsort(-centroid, kind="stable")
    profile = np.empty(member_profiles.shape[1])
    for rank, t in enumerate(order):
        profile[t] = group_means[rank]
    return profile


def representatives(rows, assignment, steps, method):
    """Representative profiles (k, steps, N_a), one cluster at a time.

    rows holds one period per row in the step-major layout. Centroid is the
    member mean; medoid is the member with the smallest summed squared
    distance to all members, the lowest period index on ties; distribution
    follows :func:`distribution_profile` per attribute.
    """
    rows = np.asarray(rows, dtype=np.float64)
    k = int(np.max(assignment)) + 1
    n_attrs = rows.shape[1] // steps
    out = np.empty((k, steps, n_attrs))
    for c in range(k):
        members = np.flatnonzero(assignment == c)
        periods = rows[members].reshape(members.size, steps, n_attrs)
        if method == "centroid":
            out[c] = periods.mean(axis=0)
        elif method == "medoid":
            sums = sq_distance_matrix(rows[members]).sum(axis=1)
            out[c] = periods[int(np.argmin(sums))]
        else:
            for a in range(n_attrs):
                out[c, :, a] = distribution_profile(periods[:, :, a])
    return out


def read_csv(path: Path) -> tuple[np.ndarray, list[str]]:
    """Parse a time-series CSV into values and attribute names, cell by cell.

    The CLI's parser before its ``np.loadtxt`` fast path: ``csv`` rows and
    ``float()`` per cell. Errors name the offending line, a record's last
    line if it spans lines. Lines keep their ends, so a quoted cell that
    spans lines keeps its line break.
    """
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(text.splitlines(keepends=True))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    has_timestamp = bool(header) and header[0].lower() == "timestamp"
    names = header[1:] if has_timestamp else header
    if not names:
        raise DataError(f"{path}: header declares no attribute columns (line 1)")
    rows, line_nos = [], []
    for row in reader:
        line_no = reader.line_num
        if not row:
            raise DataError(f"{path}: blank line {line_no}")
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}")
        cells = row[1:] if has_timestamp else row
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}: line {line_no}: {exc}") from exc
        line_nos.append(line_no)
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        t, a = bad[0]
        raise DataError(
            f"{path}: line {line_nos[t]}: non-finite value in column {names[a]!r}")
    return values, names
