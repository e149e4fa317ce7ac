"""Medians, quartiles and the rule that compares a change with its parent."""

import statistics


def summary(values):
    """(median, q1, q3) with statistics.quantiles' default method."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(parent, change, better, bound=None):
    """Judge one metric on one workload from runs of both sides.

    parent, change: values of the metric, one per run, the i-th of each made
    back to back as a pair. Returns (verdict, details), verdict one of
    improved, unchanged, worse, unresolved:

    - improved: the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ, in the change's favour, by
      more than the parent's interquartile distance;
    - worse: the change's median is worse than the parent's by more than
      bound (a share of the parent median); without a bound, the change
      loses nine tenths of the pairs by more than the parent's spread;
    - unresolved: the parent's own spread is wider than the bound, unless
      every change run reads better than every parent run;
    - unchanged: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    iqr = p_q3 - p_q1
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    worse_share = -gain / abs(p_med) if p_med else 0.0
    details = {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3, "n": len(parent)},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "n": len(change)},
        "pairs": len(pairs),
        "win_share": wins / len(pairs) if pairs else 0.0,
        "change_share": (c_med - p_med) / abs(p_med) if p_med else 0.0,
        "bound": bound,
    }
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", details
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse", details
        return "unchanged", details
    if worse_share > bound:
        return "worse", details
    spread = iqr / abs(p_med) if p_med else float("inf")
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", details
    return "unchanged", details
