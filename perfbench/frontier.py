"""Seeded synthetic efficient frontiers, written as qslice frontier CSV.

The frontier is the upper branch of the mean-variance hyperbola

    sigma**2 = sigma0**2 + a * (mu - mu0)**2,

so return rises with risk and is concave in it. Risks are sorted values in
[sigma0, 0.95) and returns stay inside [0, 1). The first row is the
minimum-variance portfolio and another is the zero-rate tangency portfolio,
so the maximum Sharpe ratio sits at an interior row. The CSV text is a pure
function of (rows, seed): the same arguments give the same bytes, and
nothing is downloaded.
"""

from __future__ import annotations

import numpy as np

RISK_MAX = 0.95


def frontier_csv(rows: int, seed: int) -> str:
    """CSV text of a concave frontier with ``rows`` portfolios drawn from ``seed``."""
    if rows < 3:
        raise ValueError("a frontier needs at least three rows")
    rng = np.random.default_rng([seed, rows])
    sigma0 = rng.uniform(0.04, 0.08)
    mu0 = rng.uniform(0.02, 0.05)
    mu_end = rng.uniform(0.45, 0.75)
    a = (RISK_MAX**2 - sigma0**2) / (mu_end - mu0) ** 2
    mu_star = mu0 + sigma0**2 / (a * mu0)
    risks = rng.uniform(sigma0, RISK_MAX - 1e-6, rows)  # below 0.95 once printed
    risks[0] = sigma0
    risks[1] = np.sqrt(sigma0**2 + a * (mu_star - mu0) ** 2)
    risks.sort()
    returns = mu0 + np.sqrt(np.maximum(risks**2 - sigma0**2, 0.0) / a)
    lines = ["id,expected_return,std_dev"]
    lines.extend(
        f"{k},{r:.6f},{s:.6f}"
        for k, (r, s) in enumerate(zip(returns.tolist(), risks.tolist()))
    )
    return "\n".join(lines) + "\n"
