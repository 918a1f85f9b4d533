"""Pure helpers of the ev8bp benchmark: the percentile rule, metric-name
validity and failed-operation accounting. run.py reports through them
and test_stats.py pins their behaviour.
"""

import math
import re
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it; fewer would make the "tail" one or two unlucky samples.
MIN_BEYOND = 10

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tail_percentile(values, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with at least @p min_beyond samples
    strictly past its nearest rank (ceil(pct/100 * n)), as
    (pct, value, n); None when even the median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        # round() keeps 99.9% of 10000 at rank 9990, not 9991.
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
        if n - rank >= min_beyond:
            return pct, ordered[rank - 1], n
    return None


def describe(name, unit, values):
    """One human report line: median, tail percentile (or why there is
    none) and the sample count."""
    tail = tail_percentile(values)
    if tail is None:
        tail_text = f"no tail (needs >= {2 * MIN_BEYOND} samples)"
    else:
        tail_text = f"p{tail[0]:g} {tail[1]:.6g} {unit}"
    return (f"{name:<18} {statistics.median(values):.6g} {unit:<6} "
            f"median, {tail_text}, n={len(values)}")


def check_metric_specs(specs):
    """Problems with a list of {"name", "unit", ...} metric specs:
    invalid names or units and duplicate names."""
    problems = []
    seen = set()
    for spec in specs:
        name, unit = spec.get("name", ""), spec.get("unit", "")
        if not NAME_RE.match(name):
            problems.append(f"invalid metric name {name!r}")
        if not UNIT_RE.match(unit):
            problems.append(f"invalid unit {unit!r} for {name!r}")
        if name in seen:
            problems.append(f"duplicate metric name {name!r}")
        seen.add(name)
    return problems


class OpLedger:
    """Failed-over-attempted accounting. Every operation the benchmark
    attempts (a batch artifact, a served session, a parity check) is
    recorded once; it fails when the program failed or any of its
    checks did."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems):
        """Records one operation; @p problems lists its failed checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)
        return not problems

    def ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0
