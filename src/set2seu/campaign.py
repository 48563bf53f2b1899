"""Fault-space sizes for the three planning methods and SFI sample sizes.

All totals are exact integers (arbitrary magnitude); sample sizes use
exact rational arithmetic with round-half-up so results are reproducible
bit for bit.  Every plan fixes the estimated failure proportion p at 0.5
(`SFI_P`), the worst case, which asks for the largest sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .ffsets import SetCollection

# two-sided normal cut-off per accepted confidence level (percent)
T_VALUES = {90.0: 1.645, 95.0: 1.96, 99.8: 3.09}

SFI_P = 0.5

DEFAULT_MARGINS = (0.05, 0.01, 0.001)


def fault_space_total(coll: SetCollection) -> int:
    """Sum of (2**multiplicity - 1) over the unique sets."""
    return sum((1 << s.multiplicity) - 1 for s in coll.unique_sets)


def random_multibit_space(num_ffs: int) -> int:
    """Every nonempty FF combination: 2**n - 1."""
    if num_ffs < 0:
        raise ValueError("num_ffs must be >= 0")
    return (1 << num_ffs) - 1


def cutoff_for_confidence(confidence) -> float:
    t = T_VALUES.get(float(confidence))
    if t is None:
        known = ", ".join(f"{c:g}" for c in T_VALUES)
        raise ValueError(f"unsupported confidence level '{confidence}' (known: {known})")
    return t


def sfi_sample_size(N: int, e: float, t: float = 1.96, p: float = SFI_P) -> int:
    """Sample size n = N / (1 + e^2 (N-1) / (t^2 p (1-p))), half-up, in [1, N].

    N is the fault population; e the error margin in (0,1); t the
    confidence cut-off; p the estimated failure proportion (0.5 worst case).
    """
    if N < 1:
        raise ValueError("population N must be >= 1")
    ef, tf, pf = Fraction(str(e)), Fraction(str(t)), Fraction(str(p))
    if not 0 < ef < 1:
        raise ValueError("margin e must be in (0, 1)")
    if tf <= 0:
        raise ValueError("cut-off t must be > 0")
    if not 0 < pf < 1:
        raise ValueError("proportion p must be in (0, 1)")
    q = Fraction(N) / (1 + ef * ef * Fraction(N - 1) / (tf * tf * pf * (1 - pf)))
    n = int(q + Fraction(1, 2))
    return max(1, min(n, N))


def sci3(value: int) -> str:
    """3-significant-digit scientific notation, e.g. 4140 -> '4.14E+03'."""
    if value == 0:
        return "0.00E+00"
    d = Decimal(value)
    exp = len(str(abs(value))) - 1
    m = (d / (Decimal(10) ** exp)).quantize(Decimal("1.00"), rounding=ROUND_HALF_UP)
    if abs(m) >= 10:
        m = (m / 10).quantize(Decimal("1.00"), rounding=ROUND_HALF_UP)
        exp += 1
    return f"{m}E+{exp:02d}"


def _ratio(num: int, den: int) -> float | str | None:
    """num / den as a float, or in `sci3` form where it exceeds the float range."""
    if den == 0:
        return None
    try:
        return num / den
    except OverflowError:
        return sci3(num // den)


@dataclass(frozen=True)
class FaultSpaceReport:
    method: str                 # static | propagated | random
    num_sets: int
    num_unique: int
    max_multiplicity: int
    total_faults: int

    @classmethod
    def of(cls, method: str, coll: SetCollection) -> FaultSpaceReport:
        return cls(
            method, coll.num_sets, coll.num_unique, coll.max_multiplicity, fault_space_total(coll)
        )

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "num_sets": self.num_sets,
            "num_superset": self.num_unique,
            "max_multiplicity": self.max_multiplicity,
            "total_faults": str(self.total_faults),
            "total_faults_sci": sci3(self.total_faults),
        }


@dataclass(frozen=True)
class SfiPlan:
    method: str
    population: int
    margin: float
    sample: int


@dataclass(frozen=True)
class CampaignReport:
    num_ffs: int
    static: FaultSpaceReport
    propagated: FaultSpaceReport
    random: FaultSpaceReport
    plans: tuple[SfiPlan, ...]  # one per method and margin, margins varying fastest
    margins: tuple[float, ...]
    confidence: float

    @property
    def methods(self) -> tuple[FaultSpaceReport, ...]:
        return (self.static, self.propagated, self.random)

    @property
    def monotonic_reduction(self) -> bool:
        """Verified per run: Eq-1 totals are not guaranteed monotonic under
        set replacement, because retained sets that overlap (one nested in
        another, or several maximal patterns of one site sharing FFs) count
        each shared combination once per set, so the report records it."""
        return self.propagated.total_faults <= self.static.total_faults

    @property
    def static_over_propagated(self) -> float | str | None:
        return _ratio(self.static.total_faults, self.propagated.total_faults)

    @property
    def random_over_propagated(self) -> float | str | None:
        return _ratio(self.random.total_faults, self.propagated.total_faults)

    def to_json(self) -> dict:
        t = cutoff_for_confidence(self.confidence)
        return {
            "num_ffs": self.num_ffs,
            "methods": {r.method: r.to_json() for r in self.methods},
            "reduction": {
                "static_over_propagated": self.static_over_propagated,
                "random_over_propagated": self.random_over_propagated,
                "monotonic": self.monotonic_reduction,
            },
            "sfi": {
                "confidence": self.confidence,
                "margins": list(self.margins),
                "plans": [
                    {"method": p.method, "N": str(p.population), "margin": p.margin,
                     "confidence": self.confidence, "t": t, "p": SFI_P, "n": p.sample}
                    for p in self.plans
                ],
            },
        }

    def to_csv(self) -> str:
        cols = ["method", "num_sets", "num_superset", "max_multiplicity", "total_faults"]
        cols += map(margin_column, self.margins)
        lines = [",".join(cols)]
        k = len(self.margins)
        for i, r in enumerate(self.methods):
            row = [r.method, r.num_sets, r.num_unique, r.max_multiplicity, r.total_faults]
            row += [p.sample for p in self.plans[i * k : (i + 1) * k]]
            lines.append(",".join(map(str, row)))
        return "\n".join(lines) + "\n"


def margin_column(margin: float) -> str:
    """The `report.csv` column of an SFI margin's sample sizes."""
    return f"n({margin:g})"


def build_campaign(
    static: SetCollection,
    optimized: SetCollection,
    margins=DEFAULT_MARGINS,
    confidence: float = 95,
) -> CampaignReport:
    """The report over the flip-flops of `static`; the random method draws from
    one set that holds all of them, or from none when there is no flip-flop."""
    n_ffs = len(static.ff_names)
    n_sets = min(n_ffs, 1)
    methods = (
        FaultSpaceReport.of("static", static),
        FaultSpaceReport.of("propagated", optimized),
        FaultSpaceReport("random", n_sets, n_sets, n_ffs, random_multibit_space(n_ffs)),
    )
    t = cutoff_for_confidence(confidence)
    margins = tuple(float(m) for m in margins)
    plans: list[SfiPlan] = []
    for r in methods:
        N = r.total_faults
        plans += [SfiPlan(r.method, N, m, sfi_sample_size(N, m, t) if N else 0) for m in margins]
    return CampaignReport(n_ffs, *methods, tuple(plans), margins, float(confidence))
