"""R(k,h) straight from its definition in Fractions: a short reference the
exact engine of ``injectstream.recurrence`` is tested against.  Test-only.
"""

from fractions import Fraction


def reference_table(t: Fraction, k_max: int) -> dict:
    """{(k, h): (R(k,h), argmin tag)} for 0 <= h <= k <= k_max.

    Tags number the terms 1, 2, 3 as in the library (0 on the base row h = 0);
    ties go to the lowest tag.
    """
    cells = {(k, 0): (Fraction(0), 0) for k in range(k_max + 1)}
    for h in range(1, k_max + 1):
        for k in range(h, k_max + 1):
            terms = (
                t / k + (1 - t / k) * cells[k, h - 1][0],
                Fraction(1, k) + (1 - (1 + t) / k) * cells[k - 1, h - 1][0],
                1 / (1 + t),
            )
            low = min(terms)
            cells[k, h] = (low, terms.index(low) + 1)
    return cells
