"""Extended-context feature selection: summary statistics, table name, other columns.

Section 3.2 ("Feature Selection") of the paper describes three optional
features that can be appended to the context sample:

* **SS** — summary statistics (standard deviation, average, mode, median,
  max, min).  When every sampled value is numeric the statistics are computed
  over the values themselves; otherwise they are computed over the value
  *lengths*.  Floats are rounded to two decimal places, integers keep no
  decimal place.
* **TN** — the table (file) name.
* **OC** — samples from the other columns of the table, labelled with the
  index of the column they came from.

The paper finds these features help the fine-tuned model but hurt zero-shot
performance (Figure 6); this module only computes them — the pipeline decides
when to use them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.core.table import Column, Table, all_numeric_strings


def _format_stat(value: float) -> str:
    """Format a statistic the way the paper describes.

    Floats are rounded to two decimal places; values that round to an integer
    are printed without a decimal point.
    """
    rounded = round(float(value), 2)
    if rounded == int(rounded):
        return str(int(rounded))
    return f"{rounded:.2f}"


@dataclass(frozen=True)
class SummaryStatistics:
    """The six summary statistics listed in the paper, ready for serialization."""

    std: float
    mean: float
    mode: float
    median: float
    maximum: float
    minimum: float
    over_lengths: bool

    def as_strings(self) -> list[str]:
        """Render the statistics as ``"name: value"`` strings for the prompt."""
        prefix = "len " if self.over_lengths else ""
        return [
            f"{prefix}std: {_format_stat(self.std)}",
            f"{prefix}mean: {_format_stat(self.mean)}",
            f"{prefix}mode: {_format_stat(self.mode)}",
            f"{prefix}median: {_format_stat(self.median)}",
            f"{prefix}max: {_format_stat(self.maximum)}",
            f"{prefix}min: {_format_stat(self.minimum)}",
        ]


def _to_float(value: str) -> float:
    """Scalar reference parser (the vectorized path must match it exactly)."""
    return float(value.replace(",", ""))


#: The stdlib's correctly-rounded ``sqrt(p/q)`` (what ``pstdev`` rounds its
#: exact rational variance through).  Private, so feature-detected; when a
#: future stdlib renames it the slow exact path below simply stays on
#: ``statistics.pstdev``.
_SQRT_OF_FRAC = getattr(statistics, "_float_sqrt_of_frac", None)

#: Columns shorter than this keep the stdlib sort for the median;
#: ``np.median``'s fixed call overhead loses below a few hundred elements.
_NP_MEDIAN_MIN_SIZE = 512


def _population_std(arr: np.ndarray, numbers: list[float]) -> float:
    """Bit-identical :func:`statistics.pstdev` over a finite float64 array.

    ``pstdev`` computes the exact rational variance (per-value
    ``as_integer_ratio`` folded into ``Fraction`` partials — the dominant
    per-value cost of the whole summary sketch) and takes a correctly
    rounded square root.  This does the same arithmetic vectorized: split
    every value into an exact int64 mantissa and exponent via ``frexp``,
    group by exponent, and accumulate the sums of mantissas and squared
    mantissas as exact Python integers (squares via a 27-bit hi/lo split and
    256-element chunks so every intermediate fits int64).  The variance
    fraction is then exact, and the stdlib's own rounding turns it into the
    identical float.
    """
    n = arr.size
    if _SQRT_OF_FRAC is None:
        return statistics.pstdev(numbers)
    mantissa, exponent = np.frexp(arr)
    ints = np.ldexp(mantissa, 53).astype(np.int64)  # exact: |m * 2**53| <= 2**53
    exponent = exponent.astype(np.int64)
    order = np.argsort(exponent, kind="stable")
    exp_sorted = exponent[order]
    ints_sorted = ints[order]
    hi = ints_sorted >> 27
    lo = ints_sorted - (hi << 27)
    starts = [0] + (np.flatnonzero(np.diff(exp_sorted)) + 1).tolist() + [n]
    emin = int(exp_sorted[0]) - 53
    sum_x = 0  # sum(values)    == sum_x  * 2**emin
    sum_xx = 0  # sum(values**2) == sum_xx * 2**(2 * emin)
    for group in range(len(starts) - 1):
        begin, end = starts[group], starts[group + 1]
        shift = int(exp_sorted[begin]) - 53 - emin
        part_x = 0
        part_xx = 0
        for left in range(begin, end, 256):
            right = min(left + 256, end)
            ci = ints_sorted[left:right]
            ch = hi[left:right]
            cl = lo[left:right]
            part_x += int(ci.sum())
            part_xx += (
                (int((ch * ch).sum()) << 54)
                + (int((ch * cl).sum()) << 28)
                + int((cl * cl).sum())
            )
        sum_x += part_x << shift
        sum_xx += part_xx << (2 * shift)
    # pstdev's exact formula: mss = (n * sxx - sx**2) / n**2, sqrt rounded once.
    numerator = n * sum_xx - sum_x * sum_x
    if emin >= 0:
        mss = Fraction(numerator << (2 * emin), n * n)
    else:
        mss = Fraction(numerator, (n * n) << (-2 * emin))
    return _SQRT_OF_FRAC(mss.numerator, mss.denominator)


def _mean(numbers: list[float]) -> float:
    """``statistics.fmean``, or the exact ``statistics.mean`` when the float
    sum overflows (finite values whose sum passes the float range)."""
    try:
        return statistics.fmean(numbers)
    except OverflowError:
        return float(statistics.mean(numbers))


def _median(arr: np.ndarray, numbers: list[float]) -> float:
    """The median; ``np.median`` past the size where its call overhead
    amortizes, the stdlib sort below it (both give the identical float).

    Both average an even column's two middle values as ``(lo + hi) / 2``.
    When that sum overflows, the midpoint is taken as ``lo / 2 + hi / 2``,
    which is finite for finite ``lo`` and ``hi``.
    """
    if arr.size >= _NP_MEDIAN_MIN_SIZE:
        with np.errstate(over="ignore"):
            median = float(np.median(arr))
    else:
        median = float(statistics.median(numbers))
    if math.isinf(median) and arr.size % 2 == 0:
        upper = arr.size // 2
        lo, hi = np.partition(arr, (upper - 1, upper))[upper - 1:upper + 1].tolist()
        median = lo / 2 + hi / 2
    return median


def summary_statistics(values: Sequence[str]) -> SummaryStatistics | None:
    """Compute the paper's summary statistics sketch over ``values``.

    Returns None if there are no non-empty values to summarise.  When any
    sampled value is non-numeric the statistics are computed over string
    lengths instead of the values themselves (and ``over_lengths`` is set).

    This runs over *every* value of the column (not just the context
    sample), so it is sized by table length, and its hot loops are
    vectorized where profiling says numpy wins — exactly, so the formatted
    prompt strings never drift from the historical per-value path
    (property-tested):

    * the all-numeric gate is one joined regex pass
      (:func:`repro.core.table.all_numeric_strings`);
    * the number extraction is one array-wide float64 parse (numpy's string
      parser is correctly-rounded like ``float``, so the array matches the
      scalar ``_to_float`` loop bit-for-bit);
    * the population std runs ``pstdev``'s exact rational arithmetic over
      integer mantissa partials (:func:`_population_std`), the dominant
      per-value cost of the sketch;
    * mode and mean stay on :func:`statistics.mode` / :func:`statistics.fmean`
      (measured faster than their numpy counterparts at column scale), and
      the median switches to ``np.median`` only past the size where its
      call overhead amortizes — both median branches produce the identical
      float.

    A numeric column whose parse holds a non-finite float (a literal such as
    ``"1e999"`` overflows to ``inf``) is summarised over value lengths, as
    the strings ``"inf"`` and ``"nan"`` already are: they never pass the
    numeric gate.  For finite values every statistic is finite and nothing
    raises: a mean or median whose intermediate sum overflows falls back to
    an overflow-free form (see :func:`_mean` and :func:`_median`).  Only
    those overflowing columns take the fallback, so every other prompt is
    unchanged.
    """
    usable = [v for v in values if v.strip()]
    if not usable:
        return None
    over_lengths = True
    if all_numeric_strings(usable):
        stripped = [v.replace(",", "") for v in usable]
        arr = np.array(stripped, dtype=np.float64)
        over_lengths = not np.isfinite(arr).all()
    if over_lengths:
        arr = np.fromiter(map(len, usable), dtype=np.float64, count=len(usable))
    numbers = arr.tolist()
    std = _population_std(arr, numbers) if len(numbers) > 1 else 0.0
    try:
        mode = float(statistics.mode(numbers))
    except statistics.StatisticsError:  # pragma: no cover - 3.8+ never raises
        mode = numbers[0]
    return SummaryStatistics(
        std=std,
        mean=_mean(numbers),
        mode=mode,
        median=_median(arr, numbers),
        maximum=float(arr.max()),
        minimum=float(arr.min()),
        over_lengths=over_lengths,
    )


@dataclass(frozen=True)
class FeatureConfig:
    """Which extended-context features to include in the sample.

    ``include_context_sample`` is always True in the paper's experiments; it
    exists so the ablation harness can express the feature axis of Figure 6
    uniformly.
    """

    include_context_sample: bool = True
    include_table_name: bool = False
    include_summary_stats: bool = False
    include_other_columns: bool = False
    other_columns_per_column: int = 1

    @classmethod
    def from_spec(cls, spec: str) -> "FeatureConfig":
        """Parse a specification such as ``"CS+TN+SS"`` (Figure 6 x-axis labels)."""
        parts = {p.strip().upper() for p in spec.split("+") if p.strip()}
        known = {"CS", "TN", "SS", "OC"}
        unknown = parts - known
        if unknown:
            raise ValueError(f"unknown feature flags: {sorted(unknown)}")
        return cls(
            include_context_sample="CS" in parts,
            include_table_name="TN" in parts,
            include_summary_stats="SS" in parts,
            include_other_columns="OC" in parts,
        )

    def spec(self) -> str:
        """Inverse of :meth:`from_spec`."""
        parts: list[str] = []
        if self.include_context_sample:
            parts.append("CS")
        if self.include_table_name:
            parts.append("TN")
        if self.include_summary_stats:
            parts.append("SS")
        if self.include_other_columns:
            parts.append("OC")
        return "+".join(parts)


def table_name_feature(table: Table | None) -> str | None:
    """Render the TN feature string, or None when the table has no name."""
    if table is None or not table.name:
        return None
    return f"TABLE NAME: {table.name}"


def other_columns_feature(
    table: Table | None,
    column_index: int | None,
    per_column: int = 1,
) -> list[str]:
    """Render the OC feature: a few values from every other column.

    Each sampled value is prefixed with the index of its source column so the
    model can (in principle) distinguish inter-column from intra-column
    values, as discussed in Section 3.2.
    """
    if table is None or column_index is None:
        return []
    rendered: list[str] = []
    for position, other in enumerate(table.columns):
        if position == column_index:
            continue
        taken = 0
        for value in other.values:
            if not value.strip():
                continue
            rendered.append(f"col{position}: {value}")
            taken += 1
            if taken >= per_column:
                break
    return rendered


def build_feature_strings(
    sampled_values: Sequence[str],
    config: FeatureConfig,
    table: Table | None = None,
    column_index: int | None = None,
    column: Column | None = None,
) -> list[str]:
    """Assemble the full extended-context string list for one column.

    The ordering follows the fine-tuned prompt example in Figure 2 of the
    paper: table name first, then the sampled values, then summary statistics,
    then other-column samples.
    """
    pieces: list[str] = []
    if config.include_table_name:
        tn = table_name_feature(table)
        if tn is not None:
            pieces.append(tn)
    if config.include_context_sample:
        pieces.extend(sampled_values)
    if config.include_summary_stats:
        source = column.values if column is not None else list(sampled_values)
        stats = summary_statistics(source)
        if stats is not None:
            pieces.extend(stats.as_strings())
    if config.include_other_columns:
        pieces.extend(
            other_columns_feature(
                table, column_index, per_column=config.other_columns_per_column
            )
        )
    return pieces
