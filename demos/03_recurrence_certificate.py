"""The R(k,h) recurrence: the 5/9 plateau, the dip, and the certified floor.

Float fills the table fast; exact mode re-runs every near-tie in rational
arithmetic so the argmin tags and the certified minimum are beyond doubt.
"""

from fractions import Fraction

from injectstream import (
    asymptote,
    compute_table,
    first_term_dominance,
    min_diagonal,
)

table = compute_table(t="0.8", k_max=1000, mode="exact")
d = table.exact_diagonal
print("R(1,1) =", d[1], " R(2,2) =", d[2], " (the 5/9 plateau)")
print("R(1000,1000) =", float(d[1000]))

m = min_diagonal(table, 1, 1000)
digits = len(str(m.numerator)) + len(str(m.denominator))
print(f"\nmin over k <= 1000: {float(m):.10f} (exact rational, {digits} digits)")
print("certified >= 0.5506:", m >= Fraction(5506, 10000))
print(f"asymptote 1 - e^-t = {asymptote(0.8):.10f}")

flt = compute_table(t=0.8, k_max=3000, mode="float")
report = first_term_dominance(flt, 1000)
print(f"\nfirst-term dominance for k >= 1000: ok={report.ok} "
      f"(closed-form deviation {report.closed_form_max_dev:.2e})")
print("float/exact agreement on the diagonal:",
      f"{table.max_float_exact_gap:.2e}",
      f"over {table.exact_comparisons} exact near-tie recomputations")
